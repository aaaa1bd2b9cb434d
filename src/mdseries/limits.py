"""Work caps and magnitude limits.

MDS_WORK_CAP in the environment overrides the default enumeration cap.
"""

import os

DEFAULT_WORK_CAP = 100_000_000     # candidate points / scan nodes
TWIST_LIMIT = 2**63 - 1            # twists stay below this through row ops
FACTOR_INPUT_LIMIT = 10**12        # factorize() rejects larger inputs
LPF_SIEVE_LIMIT = 10**7            # least-prime-factor sieve never grows past this
TAU_TABLE_LIMIT = 10**5            # eta-product expansion cap
MOMENT_TUPLE_CAP = 1_000_000      # (q-1)^m character tuples per moment average
SUPPORT_COMBO_CAP = 5_000_000      # row-combination candidates in the support search


def work_cap(override=None):
    """Effective enumeration cap: explicit override > env var > default."""
    if override is not None:
        return int(override)
    env = os.environ.get("MDS_WORK_CAP")
    if env:
        return int(env)
    return DEFAULT_WORK_CAP
