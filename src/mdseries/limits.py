"""Work caps and magnitude limits.

MDS_WORK_CAP in the environment is the one setting of the enumeration cap;
without it the cap is DEFAULT_WORK_CAP.  No other module reads the
environment.
"""

import os

DEFAULT_WORK_CAP = 100_000_000     # candidate points / scan nodes
TWIST_LIMIT = 2**63 - 1            # twists stay below this through row ops;
                                   # factorize takes n up to it
LPF_SIEVE_LIMIT = 10**7            # least-prime-factor sieve never grows past this
TAU_TABLE_LIMIT = 10**5            # eta-product expansion cap
TAU_DEFAULT_BOUND = 10_000         # a tau record's bound when it gives none
MOMENT_TUPLE_CAP = 1_000_000      # (q-1)^m character tuples per moment average
SUPPORT_COMBO_CAP = 5_000_000      # row-combination candidates in the support search


def work_cap() -> int:
    """The enumeration cap: MDS_WORK_CAP when set and not empty, else
    DEFAULT_WORK_CAP.  The value is an integer >= 0 in ASCII digits, blanks
    around it allowed; anything else raises ValueError."""
    env = os.environ.get("MDS_WORK_CAP")
    if not env:
        return DEFAULT_WORK_CAP
    digits = env.strip(" \t")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"MDS_WORK_CAP={env!r}: expected an integer >= 0")
    return int(digits)
