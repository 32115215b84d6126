"""Panel file parsing, validation and bit-exact round-trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lgcport.errors import PanelAlignmentError, PanelParseError
from lgcport.panel import (
    PanelGapWarning,
    ReturnPanel,
    _month_ordinal,
    load_panel,
    month_label,
    write_panel,
)
from lgcport.synth import synth_panel


def write_text(path, text):
    path.write_text(text)
    return str(path)


class TestReturnPanelValidation:
    def test_valid_construction(self):
        p = ReturnPanel(["A", "B"], ["2020-01", "2020-02"], [[1.0, 2.0], [3.0, 4.0]])
        assert p.n_months == 2
        assert p.n_assets == 2

    def test_single_asset_allowed(self):
        p = ReturnPanel(["A"], ["2020-01", "2020-02"], [[1.0], [2.0]])
        assert p.n_assets == 1

    def test_too_few_months(self):
        with pytest.raises(PanelParseError, match="at least 2 months"):
            ReturnPanel(["A"], ["2020-01"], [[1.0]])

    def test_duplicate_names(self):
        with pytest.raises(PanelParseError, match="unique"):
            ReturnPanel(["A", "A"], ["2020-01", "2020-02"], [[1.0, 2.0], [3.0, 4.0]])

    def test_nonincreasing_dates(self):
        with pytest.raises(PanelParseError, match="2020-01 follows 2020-02"):
            ReturnPanel(["A"], ["2020-02", "2020-01"], [[1.0], [2.0]])

    def test_nan_rejected(self):
        with pytest.raises(PanelParseError, match="on 2020-02 for B"):
            ReturnPanel(["A", "B"], ["2020-01", "2020-02"], [[1.0, 0.0], [2.0, float("nan")]])

    def test_bad_date_format(self):
        with pytest.raises(PanelParseError, match="'2020-1'"):
            ReturnPanel(["A"], ["2020-1", "2020-02"], [[1.0], [2.0]])
        with pytest.raises(PanelParseError, match="'2020-13'"):
            ReturnPanel(["A"], ["2020-13", "2021-01"], [[1.0], [2.0]])

    @pytest.mark.parametrize(
        "names, dates, returns",
        [
            (["A", "B"], ["2020-01", "2020-02"], [[1.0], [2.0]]),
            (["A"], ["2020-01", "2020-02", "2020-03"], [[1.0], [2.0]]),
            (["A"], ["2020-01", "2020-02"], [1.0, 2.0]),
        ],
    )
    def test_shape_mismatch(self, names, dates, returns):
        with pytest.raises(PanelAlignmentError):
            ReturnPanel(names, dates, returns)


class TestMonthLabel:
    def test_roundtrip_through_year_boundary(self):
        assert month_label(2019 * 12 + 11) == "2019-12"
        assert month_label(2020 * 12 + 0) == "2020-01"

    @pytest.mark.parametrize(
        "label", ["+999-01", " 999-01", "2020- 1", "２０２０-01", "2020-０1", "2020-1 ", "20201-01"]
    )
    def test_only_ascii_digits_are_a_date(self, label):
        with pytest.raises(PanelParseError, match="expected yyyy-mm"):
            ReturnPanel(["A"], [label, "9999-12"], [[1.0], [2.0]])

    @given(
        year=st.text("0123456789+- ０٣", min_size=4, max_size=4),
        month=st.text("0123456789+- １", min_size=2, max_size=2),
    )
    def test_every_accepted_label_round_trips(self, year, month):
        label = year + "-" + month
        try:
            ordinal = _month_ordinal(label)
        except PanelParseError:
            return
        assert month_label(ordinal) == label

    @given(year=st.integers(0, 9999), month=st.integers(1, 12))
    def test_every_yyyy_mm_is_accepted(self, year, month):
        label = "%04d-%02d" % (year, month)
        assert month_label(_month_ordinal(label)) == label


class TestLoadReturns:
    def test_basic_file(self, tmp_path):
        path = write_text(
            tmp_path / "r.csv",
            "date,AAA,BBB\n2020-01,1.5,-0.5\n2020-02,0.25,2.0\n",
        )
        p = load_panel(path)
        assert p.asset_names == ["AAA", "BBB"]
        assert p.dates == ["2020-01", "2020-02"]
        assert np.array_equal(p.returns, [[1.5, -0.5], [0.25, 2.0]])

    def test_roundtrip_is_bitwise(self, tmp_path):
        panel = synth_panel(months=24, n_assets=4, seed=5)
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        back = load_panel(path)
        assert back.asset_names == panel.asset_names
        assert back.dates == panel.dates
        assert np.array_equal(back.returns, panel.returns)

    # Any finite double, with the extremes drawn often: subnormals, the
    # smallest normal, the most negative finite value and negative zero.
    CELLS = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(
            [5e-324, -4.9e-322, 2.2250738585072014e-308, -1.7976931348623157e308, -0.0]
        ),
    )

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_roundtrip_is_bitwise_for_any_values(self, tmp_path, data):
        shape = (data.draw(st.integers(2, 24)), data.draw(st.integers(1, 6)))
        values = data.draw(arrays(np.float64, shape, elements=self.CELLS))
        start = data.draw(st.integers(1000 * 12, 9998 * 12))
        dates = [month_label(start + t) for t in range(shape[0])]
        panel = ReturnPanel(["A%d" % i for i in range(shape[1])], dates, values)
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        back = load_panel(path)
        assert back.asset_names == panel.asset_names
        assert back.dates == dates
        assert back.returns.tobytes() == values.tobytes()

    def test_bad_header(self, tmp_path):
        path = write_text(tmp_path / "r.csv", "month,A\n2020-01,1\n2020-02,2\n")
        with pytest.raises(PanelParseError):
            load_panel(path)

    def test_ragged_row_alignment_error(self, tmp_path):
        path = write_text(
            tmp_path / "r.csv", "date,A,B\n2020-01,1,2\n2020-02,3\n"
        )
        with pytest.raises(PanelAlignmentError, match="row 3"):
            load_panel(path)

    def test_unparseable_cell_reports_position(self, tmp_path):
        path = write_text(
            tmp_path / "r.csv", "date,A,B\n2020-01,1,2\n2020-02,x,4\n"
        )
        with pytest.raises(PanelParseError, match="row 3 column 2"):
            load_panel(path)

    def test_duplicate_date_rejected(self, tmp_path):
        path = write_text(
            tmp_path / "r.csv", "date,A\n2020-01,1\n2020-01,2\n"
        )
        with pytest.raises(PanelParseError, match="increasing"):
            load_panel(path)

    def test_gap_warning(self, tmp_path):
        path = write_text(
            tmp_path / "r.csv", "date,A\n2020-01,1\n2020-05,2\n"
        )
        with pytest.warns(PanelGapWarning):
            load_panel(path)

    def test_contiguous_months_no_warning(self, tmp_path, recwarn):
        path = write_text(
            tmp_path / "r.csv", "date,A\n2020-01,1\n2020-02,2\n2020-03,3\n"
        )
        load_panel(path)
        assert not [w for w in recwarn if issubclass(w.category, PanelGapWarning)]

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path / "r.csv", "")
        with pytest.raises(PanelParseError):
            load_panel(path)

    def test_single_data_row(self, tmp_path):
        path = write_text(tmp_path / "r.csv", "date,A\n2020-01,1\n")
        with pytest.raises(PanelParseError):
            load_panel(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("date,A,A\n2020-01,1,2\n2020-02,3,4\n", "unique"),
            ("date,A\n2020-01,1\n2020-02,nan\n", "on 2020-02 for A"),
            ("date,A\n2020-01,1\n2020-02,-1e400\n", "on 2020-02 for A"),
            ("date,A\n2020-02,1\n2020-01,2\n", "2020-01 follows 2020-02"),
            ("date,A\n2020-01,1\n2020/02,2\n", "'2020/02'"),
            ("date,A\n", "at least 2 months"),
        ],
    )
    def test_panel_rules_apply_to_the_file(self, tmp_path, text, message):
        path = write_text(tmp_path / "r.csv", text)
        with pytest.raises(PanelParseError, match=message):
            load_panel(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"date,A\n2020-01,1\n2020-02,\xff\n")
        with pytest.raises(PanelParseError, match="utf-8"):
            load_panel(path)


class TestLoadPrices:
    def test_simple_return_conversion(self, tmp_path):
        path = write_text(
            tmp_path / "p.csv",
            "date,A\n2020-01,100\n2020-02,110\n2020-03,99\n",
        )
        p = load_panel(path, mode="prices")
        assert p.dates == ["2020-02", "2020-03"]
        assert p.returns[0, 0] == pytest.approx(10.0, rel=1e-14)
        assert p.returns[1, 0] == pytest.approx(-10.0, rel=1e-14)

    def test_row_count_drops_by_one(self, tmp_path):
        panel = synth_panel(months=20, n_assets=2, seed=1)
        prices = 100.0 * np.cumprod(1.0 + panel.returns / 100.0, axis=0)
        lines = ["date," + ",".join(panel.asset_names)]
        for d, row in zip(panel.dates, prices):
            lines.append(d + "," + ",".join(repr(float(v)) for v in row))
        path = write_text(tmp_path / "p.csv", "\n".join(lines) + "\n")
        p = load_panel(path, mode="prices")
        assert p.n_months == 19
        # Converting the cumulated prices recovers the original returns.
        assert np.allclose(p.returns, panel.returns[1:], atol=1e-9)

    def test_nonpositive_price_rejected(self, tmp_path):
        path = write_text(
            tmp_path / "p.csv", "date,A\n2020-01,100\n2020-02,0\n2020-03,50\n"
        )
        with pytest.raises(PanelParseError, match="positive"):
            load_panel(path, mode="prices")

    @pytest.mark.parametrize("price", ["inf", "nan"])
    def test_nonfinite_price_rejected(self, tmp_path, price):
        # 100 * (100 / inf - 1) would be a finite -100 % return.
        path = write_text(
            tmp_path / "p.csv", "date,A\n2020-01,100\n2020-02,%s\n2020-03,50\n" % price
        )
        with pytest.raises(PanelParseError, match="finite"):
            load_panel(path, mode="prices")

    def test_overflowing_return_rejected(self, tmp_path):
        path = write_text(
            tmp_path / "p.csv", "date,A\n2020-01,1e-300\n2020-02,1e300\n2020-03,1\n"
        )
        with pytest.raises(PanelParseError, match="non-finite return on 2020-02 for A"):
            load_panel(path, mode="prices")

    def test_two_price_rows_make_too_short_a_panel(self, tmp_path):
        path = write_text(tmp_path / "p.csv", "date,A\n2020-01,100\n2020-02,110\n")
        with pytest.raises(PanelParseError, match="at least 2 months"):
            load_panel(path, mode="prices")

    def test_dropped_first_month_is_still_checked(self, tmp_path):
        bad = write_text(tmp_path / "p.csv", "date,A\n2020-13,100\n2020-02,110\n2020-03,99\n")
        with pytest.raises(PanelParseError, match="'2020-13'"):
            load_panel(bad, mode="prices")
        gap = write_text(tmp_path / "g.csv", "date,A\n2019-11,100\n2020-02,110\n2020-03,99\n")
        with pytest.warns(PanelGapWarning):
            load_panel(gap, mode="prices")

    def test_unknown_mode(self, tmp_path):
        path = write_text(tmp_path / "p.csv", "date,A\n2020-01,1\n2020-02,2\n")
        with pytest.raises(ValueError):
            load_panel(path, mode="levels")
