"""Work caps and magnitude limits.

MDS_WORK_CAP in the environment is the one setting of the enumeration cap;
without it the cap is DEFAULT_WORK_CAP.  No other module reads the
environment.
"""

import os

DEFAULT_WORK_CAP = 100_000_000     # candidate points / scan nodes
TWIST_LIMIT = 2**63 - 1            # twists stay below this through row ops;
                                   # factorize takes n up to it
LPF_SIEVE_LIMIT = 10**7            # the least-prime-factor sieve, the only prime
                                   # sieve, stops here, and so does a prime bound P
TAU_TABLE_LIMIT = 10**5            # eta-product expansion cap
TAU_DEFAULT_BOUND = 10_000         # a tau record's bound when it gives none
MOMENT_TUPLE_CAP = 1_000_000      # (q-1)^m character tuples per moment average
SUPPORT_COMBO_CAP = 5_000_000      # row-combination candidates in the support search

# Rows a streaming pass holds at once: the box search's windows of nodes
# and of repeated last coordinates (variety), and the moment's chunks of
# n <= N and of character tuples (momentlab).  Each pass reads it at call
# time, and any value >= 1 gives the same points, in the same order, and
# the same bits; it bounds the memory.  On A = [[1, -1]] at N = 10^5, 2^12
# is as fast as 2^16 with 2.5 MB less peak memory in `mds moment`.  An
# int64 box search has N < 2^40 and at most CHUNK * N children in a window,
# which must fit int64, so CHUNK < 2^23.
CHUNK = 1 << 12


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
