"""Reference implementations that only the tests use."""
import numpy as np

from expdg.errors import UnsupportedModelError
from expdg.system import ConformalModel


def kahan_bilinear(model: ConformalModel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric bilinear extension of the conservative field.

    Defined for quadratic fields f = Q + L: returns Qb(a, b) + L(a + b)/2,
    which satisfies fbar(u, u) = f(u) and the Kahan average identity
    fbar(a, b) = 2 f((a+b)/2) - f(a)/2 - f(b)/2.
    """
    if model.quadratic_bilinear is None:
        raise UnsupportedModelError(
            f"model {model.name} has no quadratic conservative field"
        )
    out = model.quadratic_bilinear(a, b)
    if model.linear_operator is not None:
        out = out + 0.5 * model.linear_operator.apply(a + b)
    return out
