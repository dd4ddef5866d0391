"""Reference central differences, one coordinate at a time, for the tests.

``checks.finite_diff_gradient`` evaluates the loss on stacks of perturbed
parameter vectors. ``finite_diff_reference`` is the loop it replaced: it
writes each perturbed coordinate into ``params.vector`` in place, makes two
single-model loss calls, and restores the coordinate. ``tiled_stack`` is the
way the stacks were built before a step block was broadcast onto the models.
"""

import numpy as np

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


def tiled_stack(vec: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The (2, n, models, P) stack of +FD_STEP then -FD_STEP copies of the
    models ``vec``, (models, P), for the n coordinates ``coords``: the
    models tiled, then copy j of each sign given its coordinate coords[j]
    moved, in every model."""
    n = coords.size
    stack = np.tile(vec, (2, n, 1, 1))
    stack[:, range(n), :, coords] = vec.T[coords, None, :] + np.array([[FD_STEP], [-FD_STEP]])
    return stack
