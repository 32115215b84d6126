"""Return panels: the (dates x assets) matrix every other module consumes."""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import PanelAlignmentError, PanelParseError


_DATE = re.compile("[0-9]{4}-[0-9]{2}")


class PanelGapWarning(UserWarning):
    """Dates skip more than one month somewhere in the file."""


def _month_ordinal(label: str) -> int:
    """Parse 'yyyy-mm' (four ASCII digits, '-', two ASCII digits) to a month
    count, which month_label writes back as `label`; raise PanelParseError
    otherwise."""
    if not _DATE.fullmatch(label):
        raise PanelParseError("bad date %r, expected yyyy-mm" % (label,))
    month = int(label[5:])
    if not 1 <= month <= 12:
        raise PanelParseError("month out of range in %r" % (label,))
    return int(label[:4]) * 12 + (month - 1)


def month_label(ordinal: int) -> str:
    return "%04d-%02d" % (ordinal // 12, ordinal % 12 + 1)


@dataclass
class ReturnPanel:
    """Aligned monthly percent returns for a set of assets.

    `returns[t, i]` is the percent return of asset i in month `dates[t]`.
    Every panel rule is checked here: names, dates and shape that disagree
    raise PanelAlignmentError, any other broken rule PanelParseError.
    """

    asset_names: List[str]
    dates: List[str]
    returns: np.ndarray = field(repr=False)
    # Month count of each date (see _month_ordinal), set by the checks.
    _months: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.returns = np.asarray(self.returns, dtype=float)
        if self.returns.ndim != 2:
            raise PanelAlignmentError("returns must be 2-d, got %r" % (self.returns.shape,))
        n, k = self.returns.shape
        if len(self.asset_names) != k or len(self.dates) != n:
            raise PanelAlignmentError(
                "%d asset names and %d dates for %d columns and %d rows"
                % (len(self.asset_names), len(self.dates), k, n)
            )
        if n < 2 or k < 1:
            raise PanelParseError("panel needs at least 2 months and 1 asset, got %dx%d" % (n, k))
        if len(set(self.asset_names)) != k:
            raise PanelParseError("asset names must be unique, got %r" % (self.asset_names,))
        self._months = np.array([_month_ordinal(d) for d in self.dates])
        late = np.flatnonzero(np.diff(self._months) <= 0)
        if late.size:
            pair = (self.dates[late[0] + 1], self.dates[late[0]])
            raise PanelParseError("dates must be strictly increasing: %s follows %s" % pair)
        bad = np.argwhere(~np.isfinite(self.returns))
        if bad.size:
            t, i = bad[0]
            raise PanelParseError(
                "non-finite return on %s for %s" % (self.dates[t], self.asset_names[i])
            )

    @property
    def n_months(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]


def load_panel(path, mode: str = "returns") -> ReturnPanel:
    """Read a delimited UTF-8 panel file.

    Layout: header `date,NAME1,...`; one row per month, ISO yyyy-mm dates,
    strictly increasing. `mode="returns"` takes cells as percent returns;
    `mode="prices"` takes them as positive, finite price levels and converts
    to simple percent returns 100 * (P_t / P_{t-1} - 1), dropping the first
    month. The file's rows, and the returns of a price file, must make a
    ReturnPanel. Gaps larger than one month are flagged with PanelGapWarning.
    """
    if mode not in ("returns", "prices"):
        raise ValueError("mode must be 'returns' or 'prices', got %r" % mode)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as err:
        raise PanelParseError("cannot read %s: %s" % (path, err)) from None
    if not rows:
        raise PanelParseError("empty file %s" % path)
    header = rows[0]
    if len(header) < 2 or header[0].strip().lower() != "date":
        raise PanelParseError("header must be 'date,<asset names>', got %r" % header)
    names = [h.strip() for h in header[1:]]
    if any(not n for n in names):
        raise PanelParseError("blank asset name in header")

    dates, values = [], []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise PanelAlignmentError(
                "row %d has %d cells, header has %d" % (idx, len(row), len(header))
            )
        dates.append(row[0].strip())
        parsed = []
        for col, cell in enumerate(row[1:], start=2):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise PanelParseError(
                    "row %d column %d: cannot parse %r as a number" % (idx, col, cell)
                ) from None
        values.append(parsed)

    data = np.array(values, dtype=float).reshape(len(values), len(names))
    if mode == "prices" and not np.all((data > 0.0) & (data < np.inf)):
        raise PanelParseError("price mode requires strictly positive, finite prices")
    panel = ReturnPanel(asset_names=names, dates=dates, returns=data)
    if np.any(np.diff(panel._months) > 1):
        warnings.warn("panel has month gaps larger than one period", PanelGapWarning)
    if mode == "prices":
        with np.errstate(over="ignore"):  # the panel rejects an overflowing return
            returns = 100.0 * (data[1:] / data[:-1] - 1.0)
        panel = ReturnPanel(names, dates[1:], returns)
    return panel


def write_panel(panel: ReturnPanel, path) -> None:
    """Write a returns-mode panel file that load_panel reads back bit-exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(panel.asset_names))
        for date, row in zip(panel.dates, panel.returns):
            writer.writerow([date] + [repr(float(v)) for v in row])
