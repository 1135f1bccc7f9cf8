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
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"bad function spec {text!r}: {exc}") from exc
    raise FormatError(f"unknown function kind {kind!r} in {text!r}")


def _number(convert, text: str, where):
    """convert(text) for convert int or float; FormatError naming `where` otherwise.

    `where` is a line number or a header key.
    """
    try:
        return convert(text)
    except ValueError:
        place = f"line {where}" if isinstance(where, int) else where
        raise FormatError(f"{place}: expected {convert.__name__}, got {text!r}") from None


def _records(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise FormatError(f"missing header {header!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, [field.strip() for field in line.split("::")]


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
    for e in instance.edges:
        lines.append(f"edge{_SEP}{e.tail}{_SEP}{e.head}{_SEP}"
                     f"{function_to_text(e.latency)}{_SEP}"
                     f"{function_to_text(e.variability)}")
    return "\n".join(lines) + "\n"


def loads_instance(text: str) -> NetworkInstance:
    header: dict[str, str] = {}
    edges: list[Edge] = []
    for lineno, fields in _records(text, INSTANCE_HEADER):
        if fields[0] == "edge":
            if len(fields) != 5:
                raise FormatError(f"line {lineno}: edge record needs 5 fields")
            tail, head = _number(int, fields[1], lineno), _number(int, fields[2], lineno)
            try:
                latency = function_from_text(fields[3])
                variability = function_from_text(fields[4])
            except FormatError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            edges.append(Edge(tail, head, latency, variability))
        else:
            if len(fields) != 2:
                raise FormatError(f"line {lineno}: expected 'key :: value'")
            header[fields[0]] = fields[1]
    missing = {"vertices", "source", "sink", "demand", "gamma",
               "risk_model"} - set(header)
    if missing:
        raise FormatError(f"missing header fields: {sorted(missing)}")
    try:
        risk_model = RiskModel(header["risk_model"])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    ints = {key: _number(int, header[key], key) for key in ("vertices", "source", "sink")}
    return NetworkInstance(ints["vertices"], tuple(edges), ints["source"], ints["sink"],
                           _number(float, header["demand"], "demand"),
                           _number(float, header["gamma"], "gamma"), risk_model)


def _path_to_text(path) -> str:
    return ",".join(str(eid) for eid in path)


def _path_from_text(text: str, lineno: int) -> tuple[int, ...]:
    return tuple(_number(int, p, lineno) for p in text.split(","))


def dumps_oracle(oracle: OracleFlows, metadata: dict[str, str] | None = None) -> str:
    lines = [ORACLE_HEADER]
    for key, value in (metadata or {}).items():
        lines.append(f"meta{_SEP}{key}{_SEP}{value}")
    lines.append(f"rawe_cost{_SEP}{oracle.rawe_cost!r}")
    lines.append(f"rnwe_cost{_SEP}{oracle.rnwe_cost!r}")
    lines.append(f"expected_pra{_SEP}{oracle.expected_pra!r}")
    for path, amount in oracle.rawe:
        lines.append(f"rawe{_SEP}{_path_to_text(path)}{_SEP}{amount!r}")
    for path, amount in oracle.rnwe:
        lines.append(f"rnwe{_SEP}{_path_to_text(path)}{_SEP}{amount!r}")
    return "\n".join(lines) + "\n"


def loads_oracle(text: str) -> tuple[OracleFlows, dict[str, str]]:
    metadata: dict[str, str] = {}
    scalars: dict[str, float] = {}
    flows: dict[str, list[tuple[tuple[int, ...], float]]] = {"rawe": [], "rnwe": []}
    for lineno, fields in _records(text, ORACLE_HEADER):
        key = fields[0]
        if key == "meta":
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: meta record needs 3 fields")
            metadata[fields[1]] = fields[2]
        elif key in ("rawe", "rnwe"):
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: flow record needs 3 fields")
            flows[key].append((_path_from_text(fields[1], lineno),
                               _number(float, fields[2], lineno)))
        elif key in ("rawe_cost", "rnwe_cost", "expected_pra"):
            if len(fields) != 2:
                raise FormatError(f"line {lineno}: {key} record needs 2 fields")
            scalars[key] = _number(float, fields[1], lineno)
        else:
            raise FormatError(f"line {lineno}: unknown record {key!r}")
    missing = {"rawe_cost", "rnwe_cost", "expected_pra"} - set(scalars)
    if missing:
        raise FormatError(f"missing oracle fields: {sorted(missing)}")
    oracle = OracleFlows(PathFlow.of(flows["rawe"]), PathFlow.of(flows["rnwe"]),
                         scalars["rawe_cost"], scalars["rnwe_cost"],
                         scalars["expected_pra"])
    return oracle, metadata


def dumps_result(result: EquilibriumResult) -> str:
    lines = [
        RESULT_HEADER,
        f"converged{_SEP}{'true' if result.converged else 'false'}",
        f"iterations{_SEP}{result.iterations}",
        f"common_cost{_SEP}{result.common_cost!r}",
        f"vi_residual{_SEP}{result.vi_residual!r}",
    ]
    for eid, value in enumerate(result.flow):
        lines.append(f"edge_flow{_SEP}{eid}{_SEP}{float(value)!r}")
    for path, amount in result.path_flow:
        lines.append(f"path{_SEP}{_path_to_text(path)}{_SEP}{amount!r}")
    return "\n".join(lines) + "\n"


def loads_result(text: str) -> EquilibriumResult:
    header: dict[str, str] = {}
    flow_entries: list[tuple[int, float]] = []
    paths: list[tuple[tuple[int, ...], float]] = []
    for lineno, fields in _records(text, RESULT_HEADER):
        key = fields[0]
        if key in ("edge_flow", "path") and len(fields) != 3:
            raise FormatError(f"line {lineno}: {key} record needs 3 fields")
        if key == "edge_flow":
            flow_entries.append((_number(int, fields[1], lineno),
                                 _number(float, fields[2], lineno)))
        elif key == "path":
            paths.append((_path_from_text(fields[1], lineno),
                          _number(float, fields[2], lineno)))
        elif len(fields) == 2:
            header[key] = fields[1]
        else:
            raise FormatError(f"line {lineno}: unknown record {key!r}")
    missing = {"converged", "iterations", "common_cost", "vi_residual"} - set(header)
    if missing:
        raise FormatError(f"missing result fields: {sorted(missing)}")
    if header["converged"] not in ("true", "false"):
        raise FormatError(f"bad converged flag {header['converged']!r}")
    if sorted(eid for eid, _ in flow_entries) != list(range(len(flow_entries))):
        raise FormatError("edge_flow records must cover edge ids 0..E-1 exactly once")
    flow = np.zeros(len(flow_entries))
    for eid, value in flow_entries:
        flow[eid] = value
    return EquilibriumResult(flow, PathFlow.of(paths),
                             _number(float, header["common_cost"], "common_cost"),
                             _number(float, header["vi_residual"], "vi_residual"),
                             _number(int, header["iterations"], "iterations"),
                             header["converged"] == "true")


def _write(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path: str | os.PathLike) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def write_instance(path: str | os.PathLike, instance: NetworkInstance) -> None:
    _write(path, dumps_instance(instance))


def read_instance(path: str | os.PathLike) -> NetworkInstance:
    return loads_instance(_read(path))


def write_oracle(path: str | os.PathLike, oracle: OracleFlows,
                 metadata: dict[str, str] | None = None) -> None:
    _write(path, dumps_oracle(oracle, metadata))


def read_oracle(path: str | os.PathLike) -> tuple[OracleFlows, dict[str, str]]:
    return loads_oracle(_read(path))


def write_result(path: str | os.PathLike, result: EquilibriumResult) -> None:
    _write(path, dumps_result(result))


def read_result(path: str | os.PathLike) -> EquilibriumResult:
    return loads_result(_read(path))
