"""Command line entry points: synth, run, describe.

Options have no defaults of their own: each `dest` is named after the field
or parameter it sets, and a command passes on only the options given, so
every default is the one of RunConfig, synth_panel or asset_table.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .backtest import GRID_METHODS
from .errors import ConfigError, LgcportError
from .panel import PANEL_MODES, load_panel, write_panel
from .report import RunConfig, describe_text, execute_run
from .synth import SYNTH_MODELS, synth_panel


def _csv_list(cast, option):
    """An option type: a comma list of `cast` values, or a ConfigError naming `option`."""

    def parse(text):
        try:
            return [cast(part) for part in text.split(",") if part.strip()]
        except ValueError as err:
            raise ConfigError("%s: %s" % (option, err)) from err

    return parse


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ConfigError, so that they too end in
    the one JSON line. Subparsers take this class from their parent."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lgcport",
        description="Local-correlation covariance estimation and rolling portfolio backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    quiet = argparse.SUPPRESS  # an option not given sets nothing

    p_run = sub.add_parser("run", help="backtest a return or price panel", argument_default=quiet)
    p_run.add_argument(
        "--input", dest="input_path", required=True, help="panel file (date,asset columns)"
    )
    p_run.add_argument("--mode", choices=PANEL_MODES)
    p_run.add_argument(
        "--out", dest="output_dir", required=True, help="output directory for reports"
    )
    p_run.add_argument(
        "--windows", type=_csv_list(int, "--windows"), help="comma list of window lengths"
    )
    p_run.add_argument(
        "--strategies",
        type=_csv_list(str, "--strategies"),
        help="comma list of strategy labels (default: all nine)",
    )
    p_run.add_argument(
        "--tcost",
        dest="tcosts_bp",
        type=_csv_list(float, "--tcost"),
        help="comma list of costs in basis points",
    )
    p_run.add_argument("--grid", dest="grid_method", choices=GRID_METHODS)
    p_run.add_argument("--grid-lookback", type=int)
    p_run.add_argument("--grid-quantile", type=float)
    p_run.add_argument("--bandwidth-scale", type=float)
    p_run.add_argument("--gamma", type=float)
    p_run.add_argument("--var-alpha", type=float)
    p_run.add_argument(
        "--charge-initial",
        dest="charge_initial_allocation",
        action="store_true",
        help="charge transaction costs on the first allocation from cash",
    )

    p_synth = sub.add_parser(
        "synth", help="write a seeded synthetic panel", argument_default=quiet
    )
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--months", type=int)
    p_synth.add_argument("--assets", dest="n_assets", type=int)
    p_synth.add_argument("--model", choices=SYNTH_MODELS)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--rho", type=float)
    p_synth.add_argument("--theta", dest="clayton_theta", type=float, help="Clayton dependence")
    p_synth.add_argument("--start")

    p_desc = sub.add_parser(
        "describe", help="asset statistics and correlation matrices", argument_default=quiet
    )
    p_desc.add_argument("--input", dest="path", required=True)
    p_desc.add_argument("--mode", choices=PANEL_MODES)
    p_desc.add_argument("--grid-quantile", dest="quantile", type=float)
    p_desc.add_argument("--bandwidth-scale", type=float)
    p_desc.add_argument("--out", help="write here instead of stdout")
    return parser


def _cmd_run(options: dict) -> int:
    config = RunConfig(**options)
    manifest = execute_run(config)
    print(
        "wrote %d files to %s (windows: %s)"
        % (len(manifest["files"]) + 1, config.output_dir, ",".join(map(str, config.windows)))
    )
    return 0


def _cmd_synth(options: dict) -> int:
    out = options.pop("out")
    try:
        panel = synth_panel(**options)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    write_panel(panel, out)
    print("wrote %d months x %d assets to %s" % (panel.n_months, panel.n_assets, out))
    return 0


def _cmd_describe(options: dict) -> int:
    out = options.pop("out", None)
    # --input and --mode are load_panel's; the rest are asset_table's.
    panel = load_panel(**{k: options.pop(k) for k in ("path", "mode") if k in options})
    data = describe_text(panel, **options).encode("utf-8")
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 0


def main(argv=None) -> int:
    handlers = {"run": _cmd_run, "synth": _cmd_synth, "describe": _cmd_describe}
    try:
        # A usage error or a bad list option is a ConfigError raised while parsing.
        options = vars(build_parser().parse_args(argv))
        # Extreme input makes numpy warn on its way to a recorded fallback or
        # an error; the command's outcome is its output or one JSON line.
        with np.errstate(all="ignore"):
            return handlers[options.pop("command")](options)
    except (LgcportError, OSError) as err:
        report = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(report), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
