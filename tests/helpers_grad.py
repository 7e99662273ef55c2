"""Shared finite-difference gradient checker for whole estimators.

The loss surrogate is a fixed random linear functional of the output, so
its gradient with respect to the output is a constant and every deviation
comes from the network's own backward pass. Dropout is frozen by reseeding
the model before every forward; batch norm runs in train mode so the
batch-statistics path is the one being differentiated.

A conv bias feeding a batch-norm layer has a true gradient of exactly zero
(the mean subtraction cancels any bias), so relative error uses
|num| + |ana| in the denominator with an absolute floor. The floor is 1e-4:
central differences at h=1e-5 on a loss of order 10..100 carry about 1e-9
of float64 cancellation noise, so demanding |num - ana| <= 1e-4 * 1e-4 on
near-zero gradients leaves a wide margin above the noise while still
flagging any error large enough to matter.
"""

import numpy as np

FREEZE_SEED = 1234


def model_grad_check(model, x, h=1e-5, samples_per_tensor=4, seed=0):
    """Max relative error between analytic and central-difference gradients.

    Checks every parameter tensor of the model at `samples_per_tensor`
    random positions. Returns (max_rel_err, per_tensor dict). The model must
    be a float64 build: training runs in float32, but a float32 step of
    h=1e-5 drowns in rounding, so gradients are checked in float64.
    """
    if model.dtype != np.float64:
        raise TypeError(f"gradient checks need float64 weights, got {model.dtype}")
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=np.float64)

    def run():
        model.reseed(FREEZE_SEED)
        return model.forward(x, train=True)

    gy = rng.standard_normal(run().shape)

    model.zero_grads()
    run()
    model.backward(gy)
    analytic = {k: v.copy() for k, v in model.grads().items()}

    worst = 0.0
    per_tensor = {}
    params = model.params()
    for name, tensor in params.items():
        flat = tensor.ravel()
        n_take = min(samples_per_tensor, flat.size)
        idx = rng.choice(flat.size, size=n_take, replace=False)
        tensor_worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            plus = float(np.sum(run() * gy))
            flat[i] = orig - h
            minus = float(np.sum(run() * gy))
            flat[i] = orig
            num = (plus - minus) / (2 * h)
            ana = float(analytic[name].ravel()[i])
            rel = abs(num - ana) / max(abs(num) + abs(ana), 1e-4)
            tensor_worst = max(tensor_worst, rel)
        per_tensor[name] = tensor_worst
        worst = max(worst, tensor_worst)
    return worst, per_tensor
