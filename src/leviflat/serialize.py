"""Serialization of discs and filling results (JSON + CSV, 17 significant digits).

Both writers format every float with '%.17g' so output is deterministic and
round-trips exactly (the standard library encoder uses shortest round-trip
repr).  Float arrays go through `_formatted`, which formats each distinct
bit pattern once: '%.17g' is the costly step, and the files repeat a lot.
"""

from __future__ import annotations

import json
import math

import numpy as np

FLOAT_FMT = "%.17g"
CSV_BLOCK_ROWS = 1024   # rows formatted per write: bounds the text held at once


def _fmt_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} in serialized output")
    return FLOAT_FMT % x


def _formatted(values):
    """'%.17g' cells of the values flattened as float64, formatting each
    distinct bit pattern once (so -0.0 stays apart from 0.0)."""
    flat = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(flat).all():
        bad = flat[~np.isfinite(flat)][0]
        raise ValueError(f"non-finite value {bad} in serialized output")
    bits, index = np.unique(flat.view(np.uint64), return_inverse=True)
    text = (FLOAT_FMT + "\n") * len(bits) % tuple(bits.view(float).tolist())
    return np.array(text.split("\n"), dtype=object)[index].tolist()


def dumps(obj, indent=0):
    """JSON text with all floats printed to 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 0:
        return dumps(obj.item(), indent)
    if (isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.size
            and obj.dtype.kind == "f"):
        return ("[\n" + inner + (",\n" + inner).join(_formatted(obj))
                + "\n" + pad + "]")
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj.tolist() if isinstance(obj, np.ndarray) else obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{inner}{dumps(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return dumps({"re": float(obj.real), "im": float(obj.imag)}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj) + "\n")


def write_csv(path, header, rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    line = ",".join(["%s"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[i:i + CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(_formatted(block)))


def disc_to_dict(disc):
    """JSON-ready dict of a Bishop disc (Taylor data + diagnostics)."""
    c1, c2 = disc.h_coeffs
    return {
        "t": float(disc.t),
        "h_coeffs": {
            "z1": {"re": np.real(c1), "im": np.imag(c1)},
            "z2": {"re": np.real(c2), "im": np.imag(c2)},
        },
        "diagnostics": {k: (int(v) if isinstance(v, (int, np.integer)) else float(v))
                        for k, v in disc.diagnostics.items()},
    }


def family_to_dict(result, scenario_name, resolution):
    return {
        "scenario": scenario_name,
        "resolution": {"n_theta": int(resolution[0]),
                       "n_rho": int(resolution[1])},
        "junction_t": (float(result.junction_t)
                       if np.isfinite(result.junction_t) else None),
        "glue_distance": float(result.glue_distance),
        "n_discs": len(result.discs),
        "t_values": np.asarray(result.t_values, dtype=float),
        "discs": [disc_to_dict(d) for d in result.discs],
    }


def write_family(path, result, scenario_name, resolution):
    write_json(path, family_to_dict(result, scenario_name, resolution))


def write_cloud(path, result):
    """Full point cloud: columns (t, rho, theta, x1, y1, x2, y2)."""
    write_csv(path, ["t", "rho", "theta", "x1", "y1", "x2", "y2"],
              result.cloud())

