"""Tests for the deterministic 17-digit JSON/CSV writers."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from leviflat import serialize as S


class TestDumps:
    def test_float_has_17_significant_digits(self):
        assert S.dumps(0.1) == "0.10000000000000001"
        assert S.dumps(1.0 / 3.0) == "0.33333333333333331"

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(50).tolist() + [1e-300, 1e300, -0.0]
        back = json.loads(S.dumps({"v": vals}))["v"]
        assert back == vals

    def test_complex_encoding(self):
        out = json.loads(S.dumps(1.5 - 2.25j))
        assert out == {"re": 1.5, "im": -2.25}

    def test_ndarray_and_nesting(self):
        obj = {"a": np.arange(3), "b": [{"c": np.float64(0.5)}], "d": None,
               "e": True, "f": "text"}
        back = json.loads(S.dumps(obj))
        assert back == {"a": [0, 1, 2], "b": [{"c": 0.5}], "d": None,
                        "e": True, "f": "text"}

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            S.dumps({"x": float("nan")})
        with pytest.raises(ValueError):
            S.dumps([float("inf")])

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            S.dumps({"x": object()})

    def test_deterministic(self):
        obj = {"a": [0.1, 0.2], "b": {"c": 3}}
        assert S.dumps(obj) == S.dumps(obj)


class TestFiles:
    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        S.write_csv(path, ["x", "y"], [[0.1, 1.0], [2.5, -3.0]])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y"
        assert lines[1] == "0.10000000000000001,1"
        assert len(lines) == 3

    def test_write_csv_matches_per_float_formatting(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = np.concatenate([rng.standard_normal((2100, 7)),
                               [[0.0, -0.0, 1e-300, 1e300, 5e-324, 1.0, 2.0]]])
        path = tmp_path / "t.csv"
        S.write_csv(path, list("abcdefg"), rows)
        expected = "a,b,c,d,e,f,g\n" + "".join(
            ",".join("%.17g" % x for x in row) + "\n" for row in rows)
        assert path.read_text() == expected

    def test_write_csv_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite value inf"):
            S.write_csv(tmp_path / "t.csv", ["x", "y"],
                        [[0.5, 1.0], [2.0, float("inf")]])

    def test_write_json(self, tmp_path):
        path = tmp_path / "t.json"
        S.write_json(path, {"v": 0.25})
        assert json.loads(path.read_text()) == {"v": 0.25}


def fake_disc(t):
    return SimpleNamespace(
        t=t,
        h_coeffs=(np.array([0.0, 1.0 + 0.5j]), np.array([0.25 + 0j])),
        diagnostics={"boundary_residual": 1e-12, "newton_iters": 3})


class TestResultDicts:
    def test_disc_to_dict(self):
        d = S.disc_to_dict(fake_disc(0.5))
        assert d["t"] == 0.5
        assert d["h_coeffs"]["z1"]["im"][1] == 0.5
        assert d["diagnostics"]["newton_iters"] == 3

    def test_family_to_dict_nan_junction_becomes_none(self):
        result = SimpleNamespace(
            discs=[fake_disc(0.1)], t_values=np.array([0.1]),
            junction_t=float("nan"), glue_distance=0.0)
        d = S.family_to_dict(result, "demo", (64, 32))
        assert d["junction_t"] is None
        assert d["n_discs"] == 1
        # and the dict serializes without hitting the non-finite guard
        json.loads(S.dumps(d))

    def test_family_to_dict_extra_fields(self):
        result = SimpleNamespace(
            discs=[], t_values=np.array([]), junction_t=0.5,
            glue_distance=1e-12)
        d = S.family_to_dict(result, "demo", (64, 32), extra={"note": "x"})
        assert d["note"] == "x"
        assert d["junction_t"] == 0.5
