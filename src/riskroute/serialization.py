"""Plain-text serialization for instances, oracles and solver results.

All three formats are line based.  A file starts with a versioned header
comment, then one record per line with fields separated by " :: ".  Lines
that are blank or start with "#" are skipped when reading.  Floats are
written with repr() and read back with float(), which round-trips every
finite value exactly, so write -> read is value identical.

Latency and variability functions are encoded as compact specs inside a
single field:

    const 1.0
    affine 2.0 0.5              (slope, intercept)
    poly 0.5 0.0 1.0            (coefficients, ascending)
    pwl 0.0,0.0 0.5,0.0 1.0,1.0 (breakpoints)

Within one instance text, fields that hold the same spec are read into one
function object, which their edges share: a function keeps the kernel
that the solvers and its calls evaluate (`functions.LatencyFn.kernel`),
so each distinct spec builds it once.  Two reads share nothing.

A reader splits each line at "::" once.  It strips the key, the value of
a key the format has once, function specs and oracle metadata.  Ids,
counts and amounts go to int() and float() as they stand, since both skip
the whitespace around them; only a field that fails is stripped and read
again through `_parse`, for the message naming its line.  That also reads
the same value where the field is surrounded by one of the few characters
that str.strip() removes and int() and float() reject, such as "\x1f".
`dumps_oracle` refuses metadata that would not read back as it is.
"""

from __future__ import annotations

import os

import numpy as np

from .functions import Affine, Constant, LatencyFn, PiecewiseLinear, Polynomial
from .instances import OracleFlows
from .network import Edge, NetworkInstance, PathFlow, RiskModel
from .solver import EquilibriumResult

INSTANCE_HEADER = "# riskroute instance v1"
ORACLE_HEADER = "# riskroute oracle v1"
RESULT_HEADER = "# riskroute equilibrium v1"

_SEP = " :: "


class FormatError(ValueError):
    """Malformed serialized text."""


def function_to_text(fn: LatencyFn) -> str:
    if isinstance(fn, Constant):
        return f"const {fn.value!r}"
    if isinstance(fn, Affine):
        return f"affine {fn.slope!r} {fn.intercept!r}"
    if isinstance(fn, Polynomial):
        return "poly " + " ".join(repr(c) for c in fn.coeffs)
    if isinstance(fn, PiecewiseLinear):
        return "pwl " + " ".join(f"{x!r},{y!r}" for x, y in fn.points)
    raise FormatError(f"no text form for function type {type(fn).__name__}")


def function_from_text(text: str) -> LatencyFn:
    parts = text.split()
    if not parts:
        raise FormatError("empty function spec")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "const":
            (value,) = args
            return Constant(float(value))
        if kind == "affine":
            slope, intercept = args
            return Affine(float(slope), float(intercept))
        if kind == "poly":
            return Polynomial(tuple(float(c) for c in args))
        if kind == "pwl":
            points = []
            for pair in args:
                x, y = pair.split(",")
                points.append((float(x), float(y)))
            return PiecewiseLinear(tuple(points))
    except (ValueError, TypeError) as exc:
        raise FormatError(f"bad function spec {text!r}: {exc}") from exc
    raise FormatError(f"unknown function kind {kind!r} in {text!r}")


def _parse(convert, text: str, where):
    """convert(text); FormatError naming `where` if it raises ValueError.

    `where` is a line number or a record's key.
    """
    try:
        return convert(text)
    except ValueError:
        place = f"line {where}" if isinstance(where, int) else where
        raise FormatError(f"{place}: expected {convert.__name__}, got {text!r}") from None


def boolean(text: str) -> bool:
    """The converged flag, written 'true' or 'false'."""
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _records(text: str, header: str, keys: dict, values: dict):
    """Yield (line number, fields) of every record whose key is not in `keys`.

    The line is split once.  The key, fields[0], is stripped, and so is a
    `keys` record's value; the other fields are yielded as split, for the
    caller to convert or strip.  `keys` maps each key that the format has
    exactly once to the reader of its value, and `values` receives what
    those readers return.  A repeated key or a wrong field count raises
    FormatError naming its line; missing keys are named once the text ends.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise FormatError(f"missing header {header!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("::")
        key = fields[0].strip()
        # a blank line is one empty field; a comment's first field starts with "#"
        if key.startswith("#") or (not key and len(fields) == 1):
            continue
        if key not in keys:
            fields[0] = key
            yield lineno, fields
        elif len(fields) != 2:
            raise FormatError(f"line {lineno}: {key} record needs 2 fields")
        elif key in values:
            raise FormatError(f"line {lineno}: repeated record {key!r}")
        else:
            values[key] = _parse(keys[key], fields[1].strip(), key)
    missing = keys.keys() - values.keys()
    if missing:
        raise FormatError(f"missing records: {sorted(missing)}")


def dumps_instance(instance: NetworkInstance) -> str:
    lines = [
        INSTANCE_HEADER,
        f"vertices{_SEP}{instance.vertices}",
        f"source{_SEP}{instance.source}",
        f"sink{_SEP}{instance.sink}",
        f"demand{_SEP}{instance.demand!r}",
        f"gamma{_SEP}{instance.gamma!r}",
        f"risk_model{_SEP}{instance.risk_model.value}",
    ]
    lines += [f"edge{_SEP}{e.tail}{_SEP}{e.head}{_SEP}{function_to_text(e.latency)}"
              f"{_SEP}{function_to_text(e.variability)}" for e in instance.edges]
    # the empty last line ends the text with a line break
    lines.append("")
    return "\n".join(lines)


_INSTANCE_KEYS = {"vertices": int, "source": int, "sink": int, "demand": float,
                  "gamma": float, "risk_model": RiskModel}


def loads_instance(text: str) -> NetworkInstance:
    values: dict = {}
    edges: list[Edge] = []
    # spec text -> the function read from it, shared by every field that holds it
    fns: dict[str, LatencyFn] = {}

    def function(spec: str) -> LatencyFn:
        fn = fns.get(spec)
        if fn is None:
            fn = fns[spec] = function_from_text(spec)
        return fn

    for lineno, fields in _records(text, INSTANCE_HEADER, _INSTANCE_KEYS, values):
        if fields[0] != "edge":
            raise FormatError(f"line {lineno}: unknown record {fields[0]!r}")
        if len(fields) != 5:
            raise FormatError(f"line {lineno}: edge record needs 5 fields")
        try:
            tail, head = int(fields[1]), int(fields[2])
        except ValueError:
            tail, head = (_parse(int, fields[1].strip(), lineno),
                          _parse(int, fields[2].strip(), lineno))
        try:
            latency, variability = function(fields[3].strip()), function(fields[4].strip())
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        edges.append(Edge(tail, head, latency, variability))
    return NetworkInstance(edges=tuple(edges), **values)


def _path_to_text(path) -> str:
    return ",".join(str(eid) for eid in path)


def _path_from_text(text: str, lineno: int) -> tuple[int, ...]:
    return tuple(_parse(int, p, lineno) for p in text.split(","))


def _path_record(fields: list[str], lineno: int) -> tuple[tuple[int, ...], float]:
    """(path, amount) of a `key :: e1,e2,... :: amount` record."""
    try:
        return tuple(map(int, fields[1].split(","))), float(fields[2])
    except ValueError:
        return (_path_from_text(fields[1].strip(), lineno),
                _parse(float, fields[2].strip(), lineno))


def dumps_oracle(oracle: OracleFlows, metadata: dict[str, str] | None = None) -> str:
    """The oracle's text, with one meta record per `metadata` item.

    ValueError naming the key when a key or value would not read back as
    it is: one that holds "::" or a line break, where the reader splits, or
    that starts or ends with whitespace, which the reader strips.
    """
    lines = [ORACLE_HEADER]
    for key, value in (metadata or {}).items():
        for text in (key, value):
            if "::" in text or text != text.strip() or len(text.splitlines()) > 1:
                raise ValueError(f"metadata {key!r}: {text!r} would not read back: it "
                                 "holds '::' or a line break, or surrounding whitespace")
        lines.append(f"meta{_SEP}{key}{_SEP}{value}")
    lines.append(f"rawe_cost{_SEP}{oracle.rawe_cost!r}")
    lines.append(f"rnwe_cost{_SEP}{oracle.rnwe_cost!r}")
    lines.append(f"expected_pra{_SEP}{oracle.expected_pra!r}")
    lines += [f"rawe{_SEP}{_path_to_text(path)}{_SEP}{amount!r}" for path, amount in oracle.rawe]
    lines += [f"rnwe{_SEP}{_path_to_text(path)}{_SEP}{amount!r}" for path, amount in oracle.rnwe]
    lines.append("")
    return "\n".join(lines)


_ORACLE_KEYS = {"rawe_cost": float, "rnwe_cost": float, "expected_pra": float}


def loads_oracle(text: str) -> tuple[OracleFlows, dict[str, str]]:
    metadata: dict[str, str] = {}
    values: dict = {}
    flows: dict[str, list[tuple[tuple[int, ...], float]]] = {"rawe": [], "rnwe": []}
    for lineno, fields in _records(text, ORACLE_HEADER, _ORACLE_KEYS, values):
        key = fields[0]
        if key == "meta":
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: meta record needs 3 fields")
            metadata[fields[1].strip()] = fields[2].strip()
        elif key in flows:
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: flow record needs 3 fields")
            flows[key].append(_path_record(fields, lineno))
        else:
            raise FormatError(f"line {lineno}: unknown record {key!r}")
    oracle = OracleFlows(PathFlow(tuple(flows["rawe"])), PathFlow(tuple(flows["rnwe"])),
                         **values)
    return oracle, metadata


def dumps_result(result: EquilibriumResult) -> str:
    lines = [
        RESULT_HEADER,
        f"converged{_SEP}{'true' if result.converged else 'false'}",
        f"iterations{_SEP}{result.iterations}",
        f"common_cost{_SEP}{result.common_cost!r}",
        f"vi_residual{_SEP}{result.vi_residual!r}",
    ]
    lines += [f"edge_flow{_SEP}{eid}{_SEP}{value!r}"
              for eid, value in enumerate(result.flow.tolist())]
    lines += [f"path{_SEP}{_path_to_text(path)}{_SEP}{amount!r}"
              for path, amount in result.path_flow]
    lines.append("")
    return "\n".join(lines)


_RESULT_KEYS = {"converged": boolean, "iterations": int, "common_cost": float,
                "vi_residual": float}


def loads_result(text: str) -> EquilibriumResult:
    values: dict = {}
    flow_entries: list[tuple[int, float]] = []
    paths: list[tuple[tuple[int, ...], float]] = []
    for lineno, fields in _records(text, RESULT_HEADER, _RESULT_KEYS, values):
        key = fields[0]
        if key not in ("edge_flow", "path"):
            raise FormatError(f"line {lineno}: unknown record {key!r}")
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: {key} record needs 3 fields")
        if key == "path":
            paths.append(_path_record(fields, lineno))
            continue
        try:
            flow_entries.append((int(fields[1]), float(fields[2])))
        except ValueError:
            flow_entries.append((_parse(int, fields[1].strip(), lineno),
                                 _parse(float, fields[2].strip(), lineno)))
    if sorted(eid for eid, _ in flow_entries) != list(range(len(flow_entries))):
        raise FormatError("edge_flow records must cover edge ids 0..E-1 exactly once")
    flow = [0.0] * len(flow_entries)
    for eid, value in flow_entries:
        flow[eid] = value
    return EquilibriumResult(np.array(flow), PathFlow(tuple(paths)), **values)


def read_instance(path: str | os.PathLike) -> NetworkInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def write_result(path: str | os.PathLike, result: EquilibriumResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_result(result))
