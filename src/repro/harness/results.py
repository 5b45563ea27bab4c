"""Persisting experiment results.

``repro sweep --save`` dumps its :class:`Measurement` grid, extras
included, to JSON for archival or later plotting; ``load_json``
round-trips exactly.
"""

from __future__ import annotations

import json
from typing import List

from repro.harness.experiment import Measurement


def save_json(measurements: List[Measurement], path) -> None:
    """Write measurements (with extras) as a JSON document."""
    rows = [{"system": m.system, "workload": m.workload, "ratio": m.ratio,
             "value": m.value, "unit": m.unit, "extra": m.extra}
            for m in measurements]
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")


def load_json(path) -> List[Measurement]:
    """Read measurements written by :func:`save_json`."""
    with open(path) as fh:
        rows = json.load(fh)
    return [Measurement(system=row["system"], workload=row["workload"],
                        ratio=row["ratio"], value=row["value"],
                        unit=row["unit"], extra=row.get("extra", {}))
            for row in rows]
