"""Exact q-shuffle algebra on two letters, with the weighted Catalan-word
families, truncated generating-function calculus, and an identity
verification suite. All arithmetic is exact (integers and rationals in a
formal variable q); there is no floating point anywhere.
"""

from importlib import import_module as _import_module

from .errors import (
    CapExceededError,
    CutoffMismatchError,
    DegenerateProfileError,
    InexactDivisionError,
    NonCatalanWordError,
    QShuffleError,
    TrivialWordError,
)
from .qlaurent import LaurentPoly, Q_COMM, q_falling, q_int, q_pow
from .words import (
    EMPTY_WORD,
    Word,
    alternating_word,
    catalan_number,
    elevation_sequence,
    enumerate_catalan,
    is_balanced,
    is_catalan,
    profile,
    word,
    zeta_word,
)
from .algebra import (
    Element,
    commutator,
    shuffle_fold,
    shuffle_sum,
)
from .catalan import (
    catalan_element,
    d_element,
    delta_element,
    delta_scalar,
    embedding_image,
    gtilde_element,
    member,
    nabla_element,
    nabla_from_profile,
    nabla_scalar,
    nabla_split,
    vanishing_bound,
    x_cn_y,
)
# series and checks load on first use (PEP 562), so that a request that needs
# neither, such as a compute, does not import them
_LAZY = {
    "series": (
        "Series",
        "beck_log_argument",
        "d_series",
        "delta_series",
        "family_series",
        "gtilde_series",
        "log_argument",
    ),
    "checks": ("CheckReport", "VerifyConfig", "Witness", "run_all"),
}

__all__ = sorted(
    {n for n in globals() if not n.startswith("_")}
    | {n for mod, names in _LAZY.items() for n in (mod, *names)}
)


def __getattr__(name: str):
    for mod, names in _LAZY.items():
        if name == mod or name in names:
            module = _import_module(f".{mod}", __name__)
            value = globals()[name] = module if name == mod else getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
