"""Command line entry points: synth, run, describe."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, LgcportError
from .panel import load_panel, write_panel
from .report import ALL_STRATEGY_LABELS, RunConfig, describe_text, execute_run
from .synth import SYNTH_MODELS, synth_panel

def _csv_list(text, cast, option):
    try:
        return [cast(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise ConfigError("%s: %s" % (option, err)) from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgcport",
        description="Local-correlation covariance estimation and rolling portfolio backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="backtest a return or price panel")
    p_run.add_argument("--input", required=True, help="panel file (date,asset columns)")
    p_run.add_argument("--mode", choices=("returns", "prices"), default="returns")
    p_run.add_argument("--out", required=True, help="output directory for reports")
    p_run.add_argument("--windows", default="120,240", help="comma list of window lengths")
    p_run.add_argument(
        "--strategies",
        default=",".join(ALL_STRATEGY_LABELS),
        help="comma list of strategy labels (default: all nine)",
    )
    p_run.add_argument("--tcost", default="0,1", help="comma list of costs in basis points")
    p_run.add_argument("--grid", choices=("moving", "percentile"), default="moving")
    p_run.add_argument("--grid-lookback", type=int, default=3)
    p_run.add_argument("--grid-quantile", type=float, default=0.05)
    p_run.add_argument("--bandwidth-scale", type=float, default=1.1)
    p_run.add_argument("--gamma", type=float, default=1.0)
    p_run.add_argument("--var-alpha", type=float, default=0.95)
    p_run.add_argument(
        "--charge-initial",
        action="store_true",
        help="charge transaction costs on the first allocation from cash",
    )

    p_synth = sub.add_parser("synth", help="write a seeded synthetic panel")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--months", type=int, default=463)
    p_synth.add_argument("--assets", type=int, default=6)
    p_synth.add_argument("--model", choices=SYNTH_MODELS, default="bear")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--rho", type=float, default=0.5)
    p_synth.add_argument("--theta", type=float, default=2.0, help="Clayton dependence")
    p_synth.add_argument("--start", default="1980-02")

    p_desc = sub.add_parser("describe", help="asset statistics and correlation matrices")
    p_desc.add_argument("--input", required=True)
    p_desc.add_argument("--mode", choices=("returns", "prices"), default="returns")
    p_desc.add_argument("--grid-quantile", type=float, default=0.05)
    p_desc.add_argument("--bandwidth-scale", type=float, default=1.1)
    p_desc.add_argument("--out", default=None, help="write here instead of stdout")
    return parser


def _cmd_run(args) -> int:
    config = RunConfig(
        input_path=args.input,
        output_dir=args.out,
        mode=args.mode,
        windows=_csv_list(args.windows, int, "--windows"),
        strategies=_csv_list(args.strategies, str, "--strategies"),
        tcosts_bp=_csv_list(args.tcost, float, "--tcost"),
        grid_method=args.grid,
        grid_lookback=args.grid_lookback,
        grid_quantile=args.grid_quantile,
        bandwidth_scale=args.bandwidth_scale,
        charge_initial_allocation=args.charge_initial,
        gamma=args.gamma,
        var_alpha=args.var_alpha,
    )
    manifest = execute_run(config)
    print(
        "wrote %d files to %s (windows: %s)"
        % (len(manifest["files"]) + 1, args.out, ",".join(map(str, config.windows)))
    )
    return 0


def _cmd_synth(args) -> int:
    try:
        panel = synth_panel(
            months=args.months,
            n_assets=args.assets,
            model=args.model,
            seed=args.seed,
            rho=args.rho,
            clayton_theta=args.theta,
            start=args.start,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    write_panel(panel, args.out)
    print("wrote %d months x %d assets to %s" % (panel.n_months, panel.n_assets, args.out))
    return 0


def _cmd_describe(args) -> int:
    panel = load_panel(args.input, args.mode)
    text = describe_text(panel, args.grid_quantile, args.bandwidth_scale)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "synth": _cmd_synth, "describe": _cmd_describe}
    try:
        return handlers[args.command](args)
    except (LgcportError, OSError) as err:
        report = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(report), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
