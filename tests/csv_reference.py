"""The row-by-row CSV loader, kept as the reference the block loader must match.

It reads the whole file, then checks and converts one row and one cell at a
time. On every edited file the property tests write, ``load_csv`` must
return the same table, bit for bit, or raise the same ``DataError`` message.
"""

import csv
import datetime as dt
import json
from pathlib import Path

import numpy as np

from flowcast.dataset import POINTS_PER_DAY, FlowDataset, _minutes_per_point, _sidecar_path
from flowcast.errors import DataError


def load_csv_rows(path) -> FlowDataset:
    """Read a flow table; empty or NaN cells become masked-out entries."""
    path = Path(path)
    try:
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path} is empty")
    header = rows[0]
    if not header or header[0] != "timestamp":
        raise DataError(f"{path} must start with a 'timestamp' column")
    station_ids = tuple(header[1:])
    if not station_ids:
        raise DataError(f"{path} has no station columns")

    points_per_day = POINTS_PER_DAY
    lane = "ML"
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"sidecar {sidecar} is not readable JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise DataError(f"sidecar {sidecar} must hold a JSON object")
        lane = meta.get("lane", lane)
        points_per_day = meta.get("points_per_day", points_per_day)
        if not isinstance(points_per_day, int) or isinstance(points_per_day, bool):
            raise DataError(
                f"sidecar {sidecar}: points_per_day must be an integer, "
                f"got {points_per_day!r}"
            )
        stations = meta.get("stations", list(station_ids))
        if stations != list(station_ids):
            raise DataError(
                f"station columns {station_ids} do not match sidecar {stations}"
            )

    body = rows[1:]
    if not body:
        raise DataError(f"{path} has no data rows")
    p = len(station_ids)
    T = len(body)
    flows = np.full((p, T), np.nan)
    mask = np.zeros((p, T), dtype=bool)
    first_stamp = None
    step = dt.timedelta(minutes=_minutes_per_point(points_per_day))
    for index, row in enumerate(body):
        if len(row) != p + 1:
            raise DataError(
                f"{path} row {index + 2}: {len(row)} fields, expected {p + 1}"
            )
        try:
            stamp = dt.datetime.fromisoformat(row[0])
        except ValueError:
            raise DataError(f"{path} row {index + 2}: bad timestamp {row[0]!r}") from None
        if first_stamp is None:
            if stamp.time() != dt.time():
                raise DataError(f"{path} must start at midnight, got {stamp}")
            first_stamp = stamp
        elif stamp != first_stamp + index * step:
            raise DataError(f"{path} row {index + 2}: timestamp {stamp} out of cadence")
        for s, cell in enumerate(row[1:]):
            text = cell.strip()
            if text == "" or text.lower() == "nan":
                continue
            try:
                value = float(text)
            except ValueError:
                raise DataError(
                    f"{path} row {index + 2}: bad flow value {cell!r}"
                ) from None
            if np.isnan(value):  # NaN in any spelling, such as "-nan"
                continue
            flows[s, index] = value
            mask[s, index] = True
    return FlowDataset(
        flows=flows,
        mask=mask,
        station_ids=station_ids,
        start_date=first_stamp.date(),
        points_per_day=points_per_day,
        lane=lane,
    )
