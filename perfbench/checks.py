"""Output checks for the benchmark.

Every anchor here comes from the paper or from arithmetic written out in this
file, never from the code path a job times: literal ranks and trefoil values,
v3(2, 2p+1) = p^3 - p, beta_{2,1} = (n^2-1)(m^2-1)/24, independent counts of
the knots a scan visits, and a validator for the CLI's JSON schema.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd


class CheckFailed(Exception):
    """A job's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


#: rank the solver must reach at each order: the slot counts (1,1,3,4,9)
RANKS = {2: 1, 3: 1, 4: 3, 5: 4, 6: 9}

#: slots through each order; a table cut at --order k has this many entries
SLOTS_THROUGH = {0: 0, 1: 0, 2: 1, 3: 2, 4: 5, 5: 9, 6: 18}

#: the trefoil's primitive beta vector (1,1,31,5,11,1,1,5071,29,1531,17,271)
TREFOIL_BETA = dict(zip(
    ((2, 1), (3, 1), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4),
     (6, 5), (6, 6), (6, 7), (6, 8), (6, 9)),
    (1, 1, 31, 5, 11, 1, 1, 5071, 29, 1531, 17, 271)))

TREFOIL_CLASS = {(2, 3), (3, 2), (-2, -3), (-3, -2)}


def beta21(n: int, m: int) -> Fraction:
    return Fraction((n * n - 1) * (m * m - 1), 24)


def canonical_pairs(max_n: int, chirality: bool) -> list[tuple[int, int]]:
    """The canonical knots with n <= max_n: 2 <= m < n, gcd(n, m) = 1."""
    pairs = []
    for n in range(3, max_n + 1):
        for m in range(2, n):
            if gcd(n, m) == 1:
                pairs.append((n, m))
                if chirality:
                    pairs.append((n, -m))
    return pairs


def integrality_pairs(bound: int) -> tuple[int, int]:
    """(pairs visited, coprime pairs) for n in 1..bound, 0 < |m| <= bound."""
    coprime = sum(1 for n in range(1, bound + 1) for m in range(1, bound + 1)
                  if gcd(n, m) == 1)
    return 2 * bound * bound, 2 * coprime


def noncoprime_pairs(bound: int) -> int:
    """Pairs 2 <= n <= m <= bound with gcd > 1, where a witness search evaluates."""
    return sum(1 for n in range(2, bound + 1) for m in range(n, bound + 1)
               if gcd(n, m) != 1)


def v3_anchor(n: int, m: int):
    """p^3 - p for the (2, 2p+1) knot and its (n, m) <-> (m, n), (-n, -m)
    forms; None for any other knot."""
    if n * m < 0 or sorted((abs(n), abs(m)))[0] != 2:
        return None
    p = (max(abs(n), abs(m)) - 1) // 2
    return p ** 3 - p


# ----------------------------------------------------------------------
# JSON schema (the subset output_schema.json uses)
# ----------------------------------------------------------------------

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None)}
_KEYWORDS = {"$schema", "$defs", "$ref", "title", "description", "type",
             "required", "properties", "additionalProperties", "items",
             "const", "enum", "pattern"}


def _validate(doc, schema: dict, root: dict, path: str) -> None:
    unknown = set(schema) - _KEYWORDS
    require(not unknown, f"schema keyword(s) {sorted(unknown)} not supported")
    if "$ref" in schema:
        ref = schema["$ref"]
        require(ref.startswith("#/$defs/"), f"unsupported $ref {ref}")
        _validate(doc, root["$defs"][ref[len("#/$defs/"):]], root, path)
    kind = schema.get("type")
    if kind == "integer":
        require(isinstance(doc, int) and not isinstance(doc, bool), f"{path}: not an integer")
    elif kind is not None:
        require(isinstance(doc, _TYPES[kind]), f"{path}: not of type {kind}")
    if "const" in schema:
        require(doc == schema["const"], f"{path}: {doc!r} != {schema['const']!r}")
    if "enum" in schema:
        require(doc in schema["enum"], f"{path}: {doc!r} not in {schema['enum']}")
    if "pattern" in schema:
        require(isinstance(doc, str) and re.search(schema["pattern"], doc) is not None,
                f"{path}: {doc!r} does not match {schema['pattern']}")
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            require(key in doc, f"{path}: missing {key!r}")
        properties = schema.get("properties", {})
        for key, value in doc.items():
            if key in properties:
                _validate(value, properties[key], root, f"{path}.{key}")
            else:
                require(schema.get("additionalProperties", True) is not False,
                        f"{path}: unexpected key {key!r}")
    if isinstance(doc, list) and "items" in schema:
        for index, item in enumerate(doc):
            _validate(item, schema["items"], root, f"{path}[{index}]")


def _rationals(node):
    if isinstance(node, dict):
        if "num" in node and "den" in node:
            yield node
        else:
            for value in node.values():
                yield from _rationals(value)
    elif isinstance(node, list):
        for value in node:
            yield from _rationals(value)


class SchemaChecker:
    """Validates CLI documents against the package's output schema; every
    {num, den} object in a payload is checked against $defs/rational."""

    def __init__(self, schema_path):
        with open(schema_path, encoding="utf-8") as handle:
            self.schema = json.load(handle)

    def parse(self, text: str) -> dict:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"invalid JSON: {exc}") from exc
        _validate(doc, self.schema, self.schema, "$")
        rational = {"$ref": "#/$defs/rational"}
        for value in _rationals(doc["payload"]):
            _validate(value, rational, self.schema, "$.payload")
        return doc


def rational(doc: dict) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))
