"""JSON system descriptors shared by the CLI and scripted pipelines.

Twists travel as decimal strings so row-operation-inflated values survive
interchange; complex numbers travel as [re, im] pairs.  Validation errors
carry the offending field path (e.g. "A[1]").  Coefficient records are
validated and kept as canonical JSON records; build_families turns them
into families for the commands that evaluate the series.
"""

from __future__ import annotations

import cmath
import json
import re

from .arith import character_table, is_prime, primes_up_to
from .errors import DescriptorError
from .limits import TAU_DEFAULT_BOUND, TAU_TABLE_LIMIT
from .system import LaurentMonomialSystem

# Twists, lambda keys and table keys take ASCII decimal digits only: str.isdigit
# and a Unicode \d also accept '²' or '٣', which int() rejects or reads as 3.
# Table keys are matched whole, so '2^1\n' is rejected as '2\n' is.
_PRIME_POWER_KEY = re.compile(r"(\d+)\^(\d+)", re.ASCII)
# lambda keys up to this are checked against one prime sieve, larger ones
# by is_prime
_SIEVED_KEYS = 10**6
# the keys that each kind of coefficient record takes
_RECORD_KEYS = {"trivial": ("type",), "character": ("type", "q", "k"),
                "hecke_gl2": ("type", "lambda"), "tau": ("type", "bound"),
                "table": ("type", "values")}


def _is_decimal(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex_from(value, path):
    # Python's json reads NaN, Infinity and overflowing literals such as
    # 1e400 as non-finite floats, an integer past float range as an int, and
    # true and false as bools, which are ints
    if _is_number(value):
        parts = (value, 0)
    elif (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(_is_number, value))):
        parts = value
    else:
        raise DescriptorError(path, f"expected a number or [re, im] pair, got {value!r}")
    try:
        z = complex(*parts)
        finite = cmath.isfinite(z)
    except OverflowError:
        finite = False
    if not finite:
        raise DescriptorError(path, f"expected finite numbers, got {value!r}")
    return z


def _first_spelling(seen: dict, k, key, path) -> None:
    """Record key as the first spelling of k, or reject it if an earlier key
    of the same map spelled k: one prime as '3' and '03', say."""
    first = seen.setdefault(k, key)
    if first != key:
        raise DescriptorError(path, f"duplicates key {first!r}")


def _int_from(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptorError(path, f"expected an integer, got {value!r}")
    return value


def _twist_from(value, path):
    if isinstance(value, str):
        if not _is_decimal(value):
            raise DescriptorError(path, f"expected a decimal string, got {value!r}")
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DescriptorError(path, f"expected a decimal string, got {value!r}")


def parse_record(rec, path) -> dict:
    """A coefficient record, validated, in canonical form: k mod q - 1, lambda
    keys ascending, tau's bound filled in, table keys sorted, each value a
    number, or an [re, im] pair if its imaginary part is not zero."""
    if not isinstance(rec, dict) or "type" not in rec:
        raise DescriptorError(path, "expected a tagged record with a 'type' field")
    kind = rec["type"]
    if not isinstance(kind, str) or kind not in _RECORD_KEYS:
        raise DescriptorError(f"{path}.type", f"unknown coefficient kind {kind!r}")
    for key in rec:
        if key not in _RECORD_KEYS[kind]:
            raise DescriptorError(f"{path}.{key}", f"unknown key; a {kind!r} record takes "
                                  + ", ".join(map(repr, _RECORD_KEYS[kind])))
    if kind == "trivial":
        return {"type": "trivial"}
    if kind == "character":
        q = _int_from(rec.get("q"), f"{path}.q")
        k = _int_from(rec.get("k"), f"{path}.k")
        if q < 3 or q % 2 == 0 or not is_prime(q):
            raise DescriptorError(f"{path}.q", f"modulus must be an odd prime, got {q}")
        return {"type": "character", "q": q, "k": k % (q - 1)}
    if kind == "hecke_gl2":
        lam = rec.get("lambda")
        if not isinstance(lam, dict):
            raise DescriptorError(f"{path}.lambda", "expected a prime -> value map")
        ints = {key: int(key) for key in map(str, lam) if _is_decimal(key)}
        sieved = set(primes_up_to(max((k for k in ints.values() if k <= _SIEVED_KEYS),
                                      default=0)))
        out, seen = {}, {}
        for key, val in lam.items():
            k = ints.get(str(key))
            if k is None or not (k in sieved if k <= _SIEVED_KEYS else is_prime(k)):
                raise DescriptorError(f"{path}.lambda.{key}", "keys must be primes")
            if k >= 2**63:      # the family keeps its primes as int64
                raise DescriptorError(f"{path}.lambda.{key}", "keys must be below 2^63")
            _first_spelling(seen, k, key, f"{path}.lambda.{key}")
            out[k] = _complex_from(val, f"{path}.lambda.{key}")
        return {"type": "hecke_gl2",
                "lambda": {str(p): _complex_out(out[p]) for p in sorted(out)}}
    if kind == "tau":
        bound = _int_from(rec.get("bound", TAU_DEFAULT_BOUND), f"{path}.bound")
        if not 1 <= bound <= TAU_TABLE_LIMIT:
            raise DescriptorError(f"{path}.bound", f"expected 1..{TAU_TABLE_LIMIT}, got {bound}")
        return {"type": "tau", "bound": bound}
    values = rec.get("values")     # the kind is "table"
    if not isinstance(values, dict):
        raise DescriptorError(f"{path}.values", "expected a prime-power -> value map")
    out, seen = {}, {}
    for key, val in values.items():
        match = _PRIME_POWER_KEY.fullmatch(str(key))
        if not match:
            raise DescriptorError(f"{path}.values.{key}", "keys look like 'p^e', e.g. '2^1'")
        p, e = int(match.group(1)), int(match.group(2))
        if e < 1 or not is_prime(p):     # no other key is ever read
            raise DescriptorError(f"{path}.values.{key}", "keys need a prime p and e >= 1")
        _first_spelling(seen, (p, e), key, f"{path}.values.{key}")
        out[(p, e)] = _complex_from(val, f"{path}.values.{key}")
    return {"type": "table",
            "values": {f"{p}^{e}": _complex_out(v) for (p, e), v in sorted(out.items())}}


def _complex_out(z: complex):
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


def build_families(records) -> tuple:
    """The family of each canonical record.  Only the commands that evaluate
    the series call it, so only they load mdseries.coefficients."""
    from . import coefficients as c
    build = {
        "trivial": lambda rec: c.TrivialFamily(),
        "character": lambda rec: c.CharacterFamily(character_table(rec["q"]), rec["k"]),
        "hecke_gl2": lambda rec: c.HeckeGL2Family(
            {p: _complex_from(v, p) for p, v in rec["lambda"].items()}),
        "tau": lambda rec: c.TauFamily(rec["bound"]),
        "table": lambda rec: c.TableFamily(
            {tuple(pe.split("^")): _complex_from(v, pe) for pe, v in rec["values"].items()}),
    }
    return tuple(build[rec["type"]](rec) for rec in records)


def parse_descriptor(doc: dict):
    """Validate a descriptor and return (system, records, s, extras): the
    coefficient records in parse_record's canonical form, all trivial if
    `coefficients` is absent; `s`, None if absent, for commands that do not
    evaluate the series; and the unknown top-level fields, sorted.
    """
    if not isinstance(doc, dict):
        raise DescriptorError("$", "descriptor must be a JSON object")
    t = _int_from(doc.get("t"), "t")
    m = _int_from(doc.get("m"), "m")
    if t < 0 or m < 0:
        raise DescriptorError("t" if t < 0 else "m", "t and m must be nonnegative")
    A = doc.get("A")
    if not isinstance(A, list) or len(A) != m:
        raise DescriptorError("A", f"expected {m} rows")
    rows = []
    for i, row in enumerate(A):
        if not isinstance(row, list) or len(row) != t:
            raise DescriptorError(f"A[{i}]", f"expected {t} integer entries")
        rows.append(tuple(_int_from(x, f"A[{i}][{j}]") for j, x in enumerate(row)))
    omega, omega_prime = [], []
    for name, dest in (("omega", omega), ("omega_prime", omega_prime)):
        vals = doc.get(name)
        if not isinstance(vals, list) or len(vals) != m:
            raise DescriptorError(name, f"expected {m} entries")
        for i, v in enumerate(vals):
            w = _twist_from(v, f"{name}[{i}]")
            if w < 1:
                raise DescriptorError(f"{name}[{i}]", "twists are positive integers")
            dest.append(w)
    system = LaurentMonomialSystem(t=t, m=m, A=tuple(rows),
                                   omega=tuple(omega), omega_prime=tuple(omega_prime))
    recs = doc.get("coefficients")
    if recs is None:
        records = tuple({"type": "trivial"} for _ in range(t))
    else:
        if not isinstance(recs, list) or len(recs) != t:
            raise DescriptorError("coefficients", f"expected {t} family records")
        records = tuple(parse_record(rec, f"coefficients[{i}]") for i, rec in enumerate(recs))
    s_doc = doc.get("s")
    if s_doc is None:
        s = None
    else:
        if not isinstance(s_doc, list) or len(s_doc) != t:
            raise DescriptorError("s", f"expected {t} [re, im] pairs")
        s = tuple(_complex_from(v, f"s[{i}]") for i, v in enumerate(s_doc))
    known = {"t", "m", "A", "omega", "omega_prime", "coefficients", "s"}
    extras = sorted(set(doc) - known)
    return system, records, s, extras


def serialize_descriptor(system: LaurentMonomialSystem, records=None, s=None) -> dict:
    doc = {
        "t": system.t,
        "m": system.m,
        "A": [list(row) for row in system.A],
        "omega": [str(w) for w in system.omega],
        "omega_prime": [str(w) for w in system.omega_prime],
    }
    if records is not None:
        doc["coefficients"] = list(records)
    if s is not None:
        doc["s"] = [[complex(z).real, complex(z).imag] for z in s]
    return doc


class _Repeats(dict):
    """A JSON object that gives the key `repeat` twice; json keeps the later
    value."""


def _json_object(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        obj = _Repeats(obj)
        obj.repeat = next(k for k, _ in pairs if k in seen or seen.add(k))
    return obj


def _reject_repeats(doc) -> None:
    """Raise DescriptorError at the path of a key that a JSON object of doc
    gives twice, if there is one."""
    todo = [("", doc)]
    while todo:
        path, value = todo.pop()
        if isinstance(value, _Repeats):
            key = value.repeat
            raise DescriptorError(f"{path}.{key}" if path else key, f"duplicates key {key!r}")
        if isinstance(value, dict):
            todo.extend((f"{path}.{k}" if path else k, v) for k, v in value.items()
                        if isinstance(v, (dict, list)))
        elif isinstance(value, list):
            todo.extend((f"{path}[{i}]", v) for i, v in enumerate(value)
                        if isinstance(v, (dict, list)))


def load_descriptor(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_json_object)
    except OSError as exc:
        raise DescriptorError(path, f"cannot read descriptor: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DescriptorError(path, f"invalid JSON: {exc}") from None
    _reject_repeats(doc)
    return parse_descriptor(doc)
