"""Non-finite numbers at the JSON boundary: rejected on input, encoded on output."""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpbkit.certs import check
from bpbkit.cli import main
from bpbkit.harness import Report, Scenario, TrialRecord
from bpbkit.util import canonical_json

NON_FINITE_LITERALS = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]

# (subcommand, file option, JSON text with a ``{x}`` slot for the literal)
CLI_INPUTS = [
    ("run", "--scenario",
     '{{"kind":"duality_check","params":{{"trials":1,"p":{x}}}}}'),
    ("run", "--scenario",
     '{{"kind":"correct_l1sum","params":{{"trials":1,"epsilon":{x}}}}}'),
    ("run", "--scenario",
     '{{"kind":"ahsp_lattice_sum","params":{{"trials":1,'
     '"profile_spread":{x}}}}}'),
    ("run", "--scenario",
     '{{"kind":"moduli_curve","params":{{"trials":1,"space":{{"kind":"lp",'
     '"dim":2,"params":{{"p":{x}}}}}}}}}'),
    ("run", "--scenario",
     '{{"kind":"ahsp_direct_sum","params":{{"trials":1,"f":"table",'
     '"nodes":[[0.0,1.0],[0.5,{x}],[1.0,1.0]]}}}}'),
    ("moduli-curve", "--space", '{{"kind":"lp","dim":2,"params":{{"p":{x}}}}}'),
]


class TestCliRejectsNonFiniteInput:
    @pytest.mark.parametrize("literal", NON_FINITE_LITERALS)
    @pytest.mark.parametrize("command,option,template", CLI_INPUTS)
    def test_config_error_in_one_line(self, tmp_path, capsys, literal,
                                      command, option, template):
        src = tmp_path / "in.json"
        src.write_text(template.format(x=literal))
        out = tmp_path / "out.json"
        assert main([command, option, str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "non-finite number" in err
        assert not out.exists()


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
RELATION = st.sampled_from(["<=", ">=", "==", "<", ">"])
CERT = st.tuples(ANY_FLOAT, RELATION, ANY_FLOAT,
                 st.floats(min_value=0.0, max_value=1.0))
PARAMS = st.dictionaries(st.text(max_size=4),
                         st.one_of(ANY_FLOAT, st.lists(ANY_FLOAT, max_size=3)),
                         max_size=4)


def strict_loads(data: bytes):
    def refuse(token):
        raise AssertionError(f"non-JSON constant {token} in canonical bytes")
    return json.loads(data, parse_constant=refuse)


def make_report(specs, params) -> Report:
    certs = [check(f"c{i}", lhs, rel, rhs, tol)
             for i, (lhs, rel, rhs, tol) in enumerate(specs)]
    return Report(Scenario("align", params), 3, [TrialRecord(0, certs)], 0.5)


class TestCanonicalBytesNeverRaise:
    @given(st.lists(CERT, min_size=1, max_size=5), PARAMS)
    def test_report_bytes_deterministic(self, specs, params):
        report = make_report(specs, params)
        data = report.canonical_bytes()
        assert data == make_report(specs, dict(params)).canonical_bytes()
        payload = strict_loads(data)
        nan_margin = any(math.isnan(c.margin)
                         for c in report.trials[0].certificates)
        if nan_margin:
            assert not report.passed
            assert payload["summary"]["passed"] is False
            assert payload["summary"]["failures"] >= 1

    def test_nan_margin_fails_the_certificate(self):
        cert = check("c", math.nan, "<=", 1.0)
        assert math.isnan(cert.margin) and not cert.passed
        report = Report(Scenario("align", {}), 0, [TrialRecord(0, [cert])], 0.0)
        payload = strict_loads(report.canonical_bytes())
        assert payload["trials"][0]["certificates"][0]["margin"] == "NaN"
        assert payload["summary"] == {"errors": 0, "failures": 1,
                                      "passed": False, "total_certificates": 1}

    def test_non_finite_tags(self):
        data = {"x": [math.nan, math.inf, -math.inf, 1.5]}
        assert canonical_json(data) == '{"x":["NaN","Infinity","-Infinity",1.5]}'

    @given(st.dictionaries(st.text(max_size=4),
                           st.one_of(FINITE, st.lists(FINITE, max_size=3)),
                           max_size=4))
    def test_finite_payload_bytes_unchanged(self, data):
        assert canonical_json(data) == json.dumps(
            data, sort_keys=True, separators=(",", ":"), allow_nan=False)
