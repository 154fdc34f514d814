"""Search budgets: two module constants, fixed for the life of a process.

HEIGHT_BOUND caps the two walks over signed squarefree ints by absolute
value: cohomology.second_slot, the second slot of a quaternion symbol in
a given Brauer class, and the splitting value in quadform._int_isotropic
that stitches two anisotropic halves of an isotropic form.  It is 10**4
unless the environment variable WITTFORGE_SEARCH_BOUND holds a positive
integer, and it is read once, when this module is first imported; a value
that is not a positive integer is ignored.

FACTOR_BOUND caps trial division in qarith.factor.

A search that runs past either cap raises BoundExceeded rather than
silently answering "no".
"""

import os


def _env_height_bound(default: int = 10**4) -> int:
    raw = os.environ.get("WITTFORGE_SEARCH_BOUND")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


HEIGHT_BOUND = _env_height_bound()
FACTOR_BOUND = 10**6
