"""Tests for the deterministic 17-digit JSON/CSV writers."""

import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from leviflat import bishop, continuation
from leviflat import serialize as S
from leviflat.calculus import DiscGrid


def reference_dumps(obj, indent=0):
    """The JSON text of obj with one '%.17g' per float, element by element."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{\n" + ",\n".join(
            f"{inner}{json.dumps(str(k))}: {reference_dumps(v, indent + 1)}"
            for k, v in obj.items()) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + ",\n".join(
            inner + reference_dumps(v, indent + 1) for v in obj) \
            + "\n" + pad + "]"
    if isinstance(obj, float):
        return "%.17g" % obj
    return json.dumps(obj)


def lines(text):
    """text as a list of lines, so that a failed comparison reports the first
    differing line instead of diffing megabytes of text"""
    return text.split("\n")


def reference_csv(header, rows):
    return ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % x for x in row) + "\n"
        for row in np.asarray(rows).tolist())


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

    def test_zero_dimensional_arrays_are_scalars(self):
        obj = {"x": np.asarray(0.5), "n": np.asarray(3),
               "z": np.asarray(1.5 - 2.25j), "b": np.asarray(True)}
        assert json.loads(S.dumps(obj)) == {
            "x": 0.5, "n": 3, "z": {"re": 1.5, "im": -2.25}, "b": True}
        assert S.dumps(np.asarray(0.1)) == S.dumps(0.1)
        with pytest.raises(ValueError):
            S.dumps(np.asarray(np.nan))

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

    @pytest.mark.parametrize("obj", [
        np.array([0.5, -0.0, 0.5, 0.0, 1e-300, 0.5, -0.0, 0.0]),
        np.array([0.1]),
        np.array([]),
        np.array([0.1, 0.25, 0.1, -0.0], dtype=np.float32),
        np.arange(6.0).reshape(3, 2) / 7,
        {"a": {"b": np.array([1.5, -0.0, 1.5]), "c": [np.array([0.2]), 2]},
         "d": np.zeros(3), "e": []},
    ], ids=["repeats", "length-1", "empty", "float32", "2d", "nested"])
    def test_float_arrays_match_per_element_form(self, obj):
        assert S.dumps(obj) == reference_dumps(obj)

    def test_non_finite_array_rejected(self):
        with pytest.raises(ValueError, match="non-finite value -inf "):
            S.dumps({"x": np.array([0.5, -np.inf, 1.0])})


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

    def test_write_csv_repeated_values(self, tmp_path):
        # values that repeat within and across blocks, both zeros in one
        # column, the smallest subnormal and two adjacent doubles
        n = 3 * S.CSV_BLOCK_ROWS + 17
        rng = np.random.default_rng(2)
        pool = [0.0, -0.0, 5e-324, 0.1, np.nextafter(0.1, 1.0), -2.5, 1e30]
        rows = np.column_stack([
            np.repeat(np.arange(n // 500 + 1) / 3.0, 500)[:n],
            rng.choice(pool, n),
            np.tile(np.linspace(0.0, 1.0, 33), n // 33 + 1)[:n],
            np.full(n, 0.1),
            rng.standard_normal(n)])
        for data in (rows, rows.astype(np.float32)):
            path = tmp_path / "t.csv"
            S.write_csv(path, list("abcde"), data)
            assert lines(path.read_text()) \
                == lines(reference_csv("abcde", data))

    def test_write_csv_non_finite_in_a_later_block(self, tmp_path):
        rows = np.ones((2 * S.CSV_BLOCK_ROWS + 10, 3))
        rows[2 * S.CSV_BLOCK_ROWS + 5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite value nan "):
            S.write_csv(tmp_path / "t.csv", ["x", "y", "z"], rows)

    def test_write_csv_memory_is_bounded_by_a_block(self, tmp_path):
        # a writer that held the whole file's cells or text at once would
        # peak about ten times higher on ten times the rows
        rng = np.random.default_rng(3)
        peaks = []
        for rows in (rng.standard_normal((4096, 7)),
                     rng.standard_normal((40960, 7))):
            tracemalloc.start()
            try:
                S.write_csv(tmp_path / "t.csv", list("abcdefg"), rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_model_family_files_match_reference(self, tmp_path):
        discs = bishop.model_family(0.7, np.linspace(0.1, 1.0, 10),
                                    DiscGrid(64, 32))
        result = continuation.FillingResult(
            discs=discs, t_values=np.array([d.t for d in discs]),
            monitors=[d.diagnostics for d in discs], junction_t=float("nan"),
            glue_distance=0.0)
        S.write_family(tmp_path / "family.json", result, "model-quadric",
                       (64, 32))
        S.write_cloud(tmp_path / "gamma_cloud.csv", result)
        family = S.family_to_dict(result, "model-quadric", (64, 32))
        assert lines((tmp_path / "family.json").read_text()) \
            == lines(reference_dumps(family) + "\n")
        assert lines((tmp_path / "gamma_cloud.csv").read_text()) == lines(
            reference_csv(["t", "rho", "theta", "x1", "y1", "x2", "y2"],
                          result.cloud()))

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
        result.junction_t = 0.5
        assert S.family_to_dict(result, "demo", (64, 32))["junction_t"] == 0.5
