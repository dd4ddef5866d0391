"""Reference central differences, one coordinate at a time, for the tests.

``checks.finite_diff_gradient`` evaluates the loss on stacks of perturbed
parameter vectors. This is the loop it replaced: it writes each perturbed
coordinate into ``params.vector`` in place, makes two single-model loss
calls, and restores the coordinate.
"""

from ncelm.checks import FD_STEP
from ncelm.model import Gradient, ModelParams, zero_gradient


def finite_diff_reference(loss_fn, params: ModelParams) -> Gradient:
    grad = zero_gradient(params)
    vec = params.vector
    for i in range(vec.size):
        orig = vec[i]
        vec[i] = orig + FD_STEP
        hi = loss_fn(params)
        vec[i] = orig - FD_STEP
        lo = loss_fn(params)
        vec[i] = orig
        grad.vector[i] = (hi - lo) / (2.0 * FD_STEP)
    return grad
