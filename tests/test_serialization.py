"""Text format round trips and error reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskroute as rr
from riskroute import serialization as ser
from riskroute.instances import OracleFlows, RecursiveFamilySpec, Variant, build_recursive
from riskroute.synthetic import random_polynomial_instance


def test_function_spec_round_trips():
    for fn in (rr.Constant(1.25),
               rr.Affine(0.1, 2.0),
               rr.Polynomial((0.5, 0.0, 1.0 / 3.0)),
               rr.PiecewiseLinear(((0.0, 0.0), (0.5, 0.0), (1.0, 1.0)))):
        assert ser.function_from_text(ser.function_to_text(fn)) == fn


def test_function_spec_errors():
    with pytest.raises(ser.FormatError):
        ser.function_from_text("")
    with pytest.raises(ser.FormatError):
        ser.function_from_text("spline 1 2 3")
    with pytest.raises(ser.FormatError):
        ser.function_from_text("affine 1")
    with pytest.raises(ser.FormatError):
        ser.function_from_text("const banana")


@pytest.mark.parametrize("variant", [Variant.STRUCTURAL, Variant.FUNCTIONAL])
def test_instance_round_trip_is_value_identical(variant):
    inst, _ = build_recursive(
        RecursiveFamilySpec(level=2, gamma_kappa=0.7, variant=variant))
    assert ser.loads_instance(ser.dumps_instance(inst)) == inst


def test_polynomial_instance_round_trip():
    inst = random_polynomial_instance(3, 3)
    assert ser.loads_instance(ser.dumps_instance(inst)) == inst


def test_oracle_round_trip_with_metadata():
    _, oracle = build_recursive(RecursiveFamilySpec(level=2))
    text = ser.dumps_oracle(oracle, {"family": "recursive", "level": "2"})
    back, meta = ser.loads_oracle(text)
    assert back == oracle
    assert meta == {"family": "recursive", "level": "2"}


def test_result_round_trip():
    inst, _ = build_recursive(RecursiveFamilySpec(level=1))
    res = rr.solve_rnwe(inst)
    back = ser.loads_result(ser.dumps_result(res))
    assert np.array_equal(back.flow, res.flow)
    assert back.path_flow == res.path_flow
    assert back.common_cost == res.common_cost
    assert back.vi_residual == res.vi_residual
    assert back.iterations == res.iterations
    assert back.converged == res.converged


def test_reader_skips_comments_and_blank_lines():
    inst, _ = build_recursive(RecursiveFamilySpec(level=1))
    lines = ser.dumps_instance(inst).splitlines()
    noisy = [lines[0], "", "# a comment"] + lines[1:] + ["   "]
    assert ser.loads_instance("\n".join(noisy)) == inst


def test_missing_or_wrong_header_is_rejected():
    inst, _ = build_recursive(RecursiveFamilySpec(level=1))
    body = ser.dumps_instance(inst).split("\n", 1)[1]
    with pytest.raises(ser.FormatError):
        ser.loads_instance(body)
    with pytest.raises(ser.FormatError):
        ser.loads_instance(ser.ORACLE_HEADER + "\n" + body)


def test_incomplete_records_are_rejected():
    with pytest.raises(ser.FormatError):
        ser.loads_instance(ser.INSTANCE_HEADER + "\nvertices :: 2\n")
    with pytest.raises(ser.FormatError):
        ser.loads_oracle(ser.ORACLE_HEADER + "\nrawe_cost :: 1.0\n")
    with pytest.raises(ser.FormatError):
        ser.loads_result(ser.RESULT_HEADER + "\nconverged :: maybe\n")


@pytest.mark.parametrize("loads, header, record", [
    (ser.loads_result, ser.RESULT_HEADER, "edge_flow :: 0"),
    (ser.loads_result, ser.RESULT_HEADER, "path :: 0"),
    (ser.loads_result, ser.RESULT_HEADER, "edge_flow"),
    (ser.loads_result, ser.RESULT_HEADER, "path :: 0 :: 1.0 :: 2"),
    (ser.loads_oracle, ser.ORACLE_HEADER, "rawe_cost"),
    (ser.loads_oracle, ser.ORACLE_HEADER, "expected_pra :: 1.0 :: 2.0"),
])
def test_records_with_wrong_field_counts_are_rejected(loads, header, record):
    text = header + "\n# comment\n" + record + "\n"
    with pytest.raises(ser.FormatError, match="line 3"):
        loads(text)


@pytest.mark.parametrize("loads, header, record, message", [
    (ser.loads_instance, ser.INSTANCE_HEADER, "edge :: 0 :: 1 :: const 1.0",
     "edge record needs 5 fields"),
    (ser.loads_oracle, ser.ORACLE_HEADER, "meta :: family", "meta record needs 3 fields"),
    (ser.loads_oracle, ser.ORACLE_HEADER, "rawe :: 0,1", "flow record needs 3 fields"),
])
def test_short_records_name_their_line(loads, header, record, message):
    text = header + "\n# comment\n" + record + "\n"
    with pytest.raises(ser.FormatError, match=f"^line 3: {message}$"):
        loads(text)


def test_function_without_a_text_form_is_rejected():
    class Doubling(rr.LatencyFn):
        def __call__(self, x):
            return 2.0 * x

    with pytest.raises(ser.FormatError, match="no text form for function type Doubling"):
        ser.function_to_text(Doubling())


def test_result_flow_ids_must_cover_range():
    inst, _ = build_recursive(RecursiveFamilySpec(level=1))
    res = rr.solve_rnwe(inst)
    text = ser.dumps_result(res).replace("edge_flow :: 0 ::", "edge_flow :: 4 ::")
    with pytest.raises(ser.FormatError):
        ser.loads_result(text)


def test_file_round_trip(tmp_path):
    inst, oracle = build_recursive(RecursiveFamilySpec(level=1))
    ipath = tmp_path / "instance.txt"
    opath = tmp_path / "oracle.txt"
    ipath.write_text(ser.dumps_instance(inst))
    opath.write_text(ser.dumps_oracle(oracle, {"family": "recursive"}))
    assert ser.read_instance(ipath) == inst
    back, meta = ser.loads_oracle(opath.read_text())
    assert back == oracle and meta["family"] == "recursive"


@pytest.mark.parametrize("loads, header, record", [
    (ser.loads_instance, ser.INSTANCE_HEADER, "edge :: a :: 1 :: const 1.0 :: const 0.0"),
    (ser.loads_instance, ser.INSTANCE_HEADER, "edge :: 0 :: 1.5 :: const 1.0 :: const 0.0"),
    (ser.loads_result, ser.RESULT_HEADER, "edge_flow :: x :: 1.0"),
    (ser.loads_result, ser.RESULT_HEADER, "edge_flow :: 0 :: much"),
    (ser.loads_result, ser.RESULT_HEADER, "path :: 0,b,2 :: 1.0"),
    (ser.loads_oracle, ser.ORACLE_HEADER, "rawe :: 0,1 :: half"),
])
def test_non_numeric_record_fields_name_their_line(loads, header, record):
    text = header + "\n# comment\n" + record + "\n"
    with pytest.raises(ser.FormatError, match="^line 3: expected"):
        loads(text)


@pytest.mark.parametrize("spec, message", [
    ("spline 1", "unknown function kind 'spline'"),
    ("affine 1", "bad function spec 'affine 1'"),
    ("const -1.0", "bad function spec 'const -1.0'"),
])
@pytest.mark.parametrize("column", [3, 4])
def test_bad_function_spec_names_its_line(spec, message, column):
    fields = ["edge", "0", "1", "const 1.0", "const 0.0"]
    fields[column] = spec
    text = ser.INSTANCE_HEADER + "\n# comment\n" + " :: ".join(fields) + "\n"
    with pytest.raises(ser.FormatError, match=f"^line 3: {message}"):
        ser.loads_instance(text)


@pytest.mark.parametrize("key", ["vertices", "source", "sink", "demand", "gamma",
                                 "risk_model"])
def test_non_numeric_instance_header_names_its_key(key):
    inst, _ = build_recursive(RecursiveFamilySpec(level=1))
    lines = [f"{key} :: two" if line.startswith(f"{key} ::") else line
             for line in ser.dumps_instance(inst).splitlines()]
    with pytest.raises(ser.FormatError, match=f"^{key}: expected"):
        ser.loads_instance("\n".join(lines))


@pytest.mark.parametrize("key", ["iterations", "common_cost", "vi_residual", "converged"])
def test_non_numeric_result_header_names_its_key(key):
    inst, _ = build_recursive(RecursiveFamilySpec(level=1))
    lines = [f"{key} :: many" if line.startswith(f"{key} ::") else line
             for line in ser.dumps_result(rr.solve_rnwe(inst)).splitlines()]
    with pytest.raises(ser.FormatError, match=f"^{key}: expected"):
        ser.loads_result("\n".join(lines))


@pytest.mark.parametrize("key", ["rawe_cost", "rnwe_cost", "expected_pra"])
def test_non_numeric_oracle_value_names_its_key(key):
    _, oracle = build_recursive(RecursiveFamilySpec(level=1))
    lines = [f"{key} :: one" if line.startswith(f"{key} ::") else line
             for line in ser.dumps_oracle(oracle).splitlines()]
    with pytest.raises(ser.FormatError, match=f"^{key}: expected float, got 'one'$"):
        ser.loads_oracle("\n".join(lines))


def _written(kind):
    """(reader, text) of one written file of each format."""
    inst, oracle = build_recursive(RecursiveFamilySpec(level=1))
    if kind == "instance":
        return ser.loads_instance, ser.dumps_instance(inst)
    if kind == "oracle":
        return ser.loads_oracle, ser.dumps_oracle(oracle, {"family": "recursive"})
    return ser.loads_result, ser.dumps_result(rr.solve_rnwe(inst))


@pytest.mark.parametrize("kind, key", [
    *(("instance", key) for key in ("vertices", "source", "sink", "demand", "gamma",
                                    "risk_model")),
    *(("oracle", key) for key in ("rawe_cost", "rnwe_cost", "expected_pra")),
    *(("result", key) for key in ("converged", "iterations", "common_cost", "vi_residual")),
])
def test_repeated_key_names_its_line(kind, key):
    # the repeat is rejected even where it agrees with the first record
    loads, text = _written(kind)
    lines = text.splitlines()
    (first,) = [line for line in lines if line.startswith(f"{key} ::")]
    lines.append(first)
    with pytest.raises(ser.FormatError,
                       match=f"^line {len(lines)}: repeated record '{key}'$"):
        loads("\n".join(lines))


@pytest.mark.parametrize("kind, record", [
    *((kind, record) for kind in ("instance", "oracle", "result")
      for record in ("foo :: 3", "foo")),
    # a record of another format
    ("instance", "edge_flow :: 0 :: 1.0"),
    ("oracle", "edge :: 0 :: 1 :: const 1.0 :: const 0.0"),
    ("result", "rawe :: 0 :: 1.0"),
])
def test_unknown_record_names_its_line(kind, record):
    loads, text = _written(kind)
    lines = text.splitlines() + [record]
    key = record.split(" ::")[0]
    with pytest.raises(ser.FormatError,
                       match=f"^line {len(lines)}: unknown record '{key}'$"):
        loads("\n".join(lines))


# any finite nonnegative float, subnormals and huge values included: the
# text keeps repr(), which reads back to the same bits
_value = st.floats(0.0, 1e300)


@st.composite
def _piecewise_linear(draw):
    xs = sorted(draw(st.lists(_value, min_size=1, max_size=5, unique=True)))
    ys = sorted(draw(st.lists(_value, min_size=len(xs), max_size=len(xs))))
    return rr.PiecewiseLinear(tuple(zip(xs, ys)))


_functions = st.one_of(
    st.builds(rr.Constant, _value),
    st.builds(rr.Affine, _value, _value),
    st.lists(_value, max_size=5).map(lambda cs: rr.Polynomial(tuple(cs))),
    _piecewise_linear())


@settings(max_examples=300, deadline=None)
@given(_functions)
def test_every_function_spec_round_trips(fn):
    text = ser.function_to_text(fn)
    assert ser.function_from_text(text) == fn
    assert ser.function_to_text(ser.function_from_text(text)) == text


@st.composite
def _instances(draw):
    """Small DAGs with a source->sink edge, any function kinds, either risk
    model, and gamma 0 or positive."""
    n = draw(st.integers(2, 5))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda a: a[0] < a[1]), max_size=6))
    arcs.append((0, n - 1))
    edges = tuple(rr.Edge(a, b, draw(_functions), draw(_functions)) for a, b in arcs)
    return rr.NetworkInstance(n, edges, 0, n - 1, draw(_value),
                              draw(st.one_of(st.just(0.0), _value)),
                              draw(st.sampled_from(list(rr.RiskModel))))


@settings(max_examples=200, deadline=None)
@given(_instances())
def test_every_instance_round_trips(inst):
    text = ser.dumps_instance(inst)
    assert ser.loads_instance(text) == inst
    assert ser.dumps_instance(ser.loads_instance(text)) == text


def test_one_function_object_per_distinct_spec():
    inst, _ = build_recursive(RecursiveFamilySpec(level=3))
    text = ser.dumps_instance(inst)
    a, b = ser.loads_instance(text), ser.loads_instance(text)
    assert a == inst
    assert ser.dumps_instance(a) == text
    fns = [fn for e in a.edges for fn in (e.latency, e.variability)]
    assert len({id(fn) for fn in fns}) == len({ser.function_to_text(fn) for fn in fns}) < len(fns)
    # two loads share nothing
    assert not {id(fn) for fn in fns} & {id(fn) for e in b.edges
                                          for fn in (e.latency, e.variability)}


@pytest.mark.parametrize("metadata, key", [
    # the reader would split at the separator ...
    ({"note": "a :: b"}, "note"),
    ({"a::b": "c"}, "a::b"),
    # ... or at the line break
    ({"note": "two\nlines"}, "note"),
    ({"note": "two\u2028lines"}, "note"),
    # and strips what surrounds a field
    ({" k ": "v"}, " k "),
    ({"k": "v "}, "k"),
    ({"k": "\tv"}, "k"),
])
def test_oracle_metadata_that_would_not_read_back_is_rejected(metadata, key):
    _, oracle = build_recursive(RecursiveFamilySpec(level=1))
    with pytest.raises(ValueError, match=f"^metadata {key!r}: "):
        ser.dumps_oracle(oracle, {"family": "recursive", **metadata})


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=3))
def test_oracle_metadata_reads_back_or_is_rejected(metadata):
    _, oracle = build_recursive(RecursiveFamilySpec(level=1))
    try:
        text = ser.dumps_oracle(oracle, metadata)
    except ValueError:
        return
    back, meta = ser.loads_oracle(text)
    assert back == oracle
    assert meta == metadata


# runs of blanks around every field and separator: space, tab and \x1f,
# which str.strip() removes but int() and float() reject
_blanks = st.text(alphabet=" \t\x1f", max_size=3)


def _padded(draw, line: str) -> str:
    """`line` with a drawn run of blanks around each field and each '::'."""
    out = draw(_blanks)
    for i, field in enumerate(line.split(" :: ")):
        if i:
            out += draw(_blanks) + "::" + draw(_blanks)
        out += field + draw(_blanks)
    return out


_path_flows = st.lists(st.tuples(st.lists(st.integers(0, 50), min_size=1, max_size=4)
                                 .map(tuple), _value), max_size=4).map(rr.PathFlow)


@st.composite
def _written_texts(draw):
    """(reader, canonical text, writer of what the reader returns)."""
    kind = draw(st.sampled_from(["instance", "oracle", "result"]))
    if kind == "instance":
        return ser.loads_instance, ser.dumps_instance(draw(_instances())), ser.dumps_instance
    if kind == "oracle":
        oracle = OracleFlows(draw(_path_flows), draw(_path_flows), draw(_value),
                             draw(_value), draw(_value))
        meta = draw(st.dictionaries(st.sampled_from(["family", "level", "note"]),
                                    st.text(alphabet="abc 12.", max_size=5)
                                    .map(str.strip), max_size=2))
        return (ser.loads_oracle, ser.dumps_oracle(oracle, meta),
                lambda read: ser.dumps_oracle(*read))
    result = rr.EquilibriumResult(np.array(draw(st.lists(_value, min_size=1, max_size=5))),
                                  draw(_path_flows), draw(_value), draw(_value),
                                  draw(st.integers(0, 10**6)), draw(st.booleans()))
    return ser.loads_result, ser.dumps_result(result), ser.dumps_result


@settings(max_examples=300, deadline=None)
@given(_written_texts(), st.data())
def test_blanks_around_fields_read_the_same_values(written, data):
    loads, text, dumps = written
    padded = "\n".join(_padded(data.draw, line) for line in text.splitlines())
    # the values read write back the canonical text, every float's repr included
    assert dumps(loads(padded)) == dumps(loads(text)) == text


@st.composite
def _bad_numeric_fields(draw):
    """(reader, text, expected message) with one non-numeric id, count or amount."""
    inst, oracle = build_recursive(RecursiveFamilySpec(level=1))
    kind, key, column, pick = draw(st.sampled_from([
        ("instance", "edge", 1, "int"), ("instance", "edge", 2, "int"),
        ("result", "edge_flow", 1, "int"), ("result", "edge_flow", 2, "float"),
        ("result", "path", 1, "int"), ("result", "path", 2, "float"),
        ("oracle", "rawe", 1, "int"), ("oracle", "rnwe", 2, "float"),
        ("instance", "vertices", 1, "int"), ("result", "iterations", 1, "int"),
        ("instance", "demand", 1, "float"), ("oracle", "expected_pra", 1, "float"),
    ]))
    loads, text = _written(kind)
    lines = text.splitlines()
    # a comment and a blank line keep the line numbers honest
    lines[1:1] = ["# comment", ""]
    at = draw(st.sampled_from([i for i, line in enumerate(lines)
                               if line.startswith(f"{key} ::")]))
    fields = lines[at].split(" :: ")
    bad = draw(st.sampled_from(["x", "1e", "--1", "0x1", "nan?"]))
    if key in ("path", "rawe"):
        # one id of the path; the path's other ids stay as they are
        ids = fields[column].split(",")
        ids[draw(st.integers(0, len(ids) - 1))] = bad
        fields[column] = ",".join(ids)
    else:
        fields[column] = bad
    lines[at] = _padded(draw, " :: ".join(fields))
    place = f"line {at + 1}" if len(fields) > 2 else key
    return loads, "\n".join(lines), f"{place}: expected {pick}, got {bad!r}"


@settings(max_examples=200, deadline=None)
@given(_bad_numeric_fields())
def test_bad_numbers_in_padded_fields_name_the_stripped_text(case):
    loads, text, message = case
    with pytest.raises(ser.FormatError) as info:
        loads(text)
    assert str(info.value) == message
