"""Exact q-shuffle algebra on two letters, with the weighted Catalan-word
families, truncated generating-function calculus, and an identity
verification suite. All arithmetic is exact (integers and rationals in a
formal variable q); there is no floating point anywhere.
"""

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
    Letter,
    Profile,
    Word,
    alternating_word,
    catalan_number,
    elevation_sequence,
    enumerate_catalan,
    is_balanced,
    is_catalan,
    length_cap,
    profile,
    set_length_cap,
    weight,
    word,
    zeta_word,
)
from .algebra import (
    Element,
    commutator,
    shuffle_fold,
    shuffle_sum,
    zeta,
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
from .series import (
    Series,
    beck_log_argument,
    c_series,
    d_series,
    delta_series,
    family_series,
    gtilde_series,
    log_argument,
    nabla0_log_argument,
    nabla0_series,
    x_cn_y_series,
)
from .checks import CheckReport, VerifyConfig, Witness, run_all

__version__ = "0.1.0"
