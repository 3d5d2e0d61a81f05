#!/usr/bin/env python3
"""Launch the full benchmark campaign with the published tribe layouts.

Twenty datasets, 25 runs each by default. At full budget this is a
multi-day job on one machine; use --only and --runs to carve out pieces.
Each dataset writes a report directory under --out, ready for
`tribefs stats collect`.
"""

import argparse
import sys
from pathlib import Path

import tribefs as t

# name, tribe size, cardinality means (one tribe per mean)
LAYOUTS = [
    ("wbcd", 600, (2, 5, 8)),
    ("heart", 600, (3, 7, 11)),
    ("australian", 600, (3, 7, 11)),
    ("german", 600, (5, 11, 17)),
    ("wdbc", 600, (7, 15, 23)),
    ("ionosphere", 600, (8, 17, 26)),
    ("kr-vs-kp", 600, (9, 18, 27)),
    ("spambase", 600, (14, 28, 32)),
    ("sonar", 600, (15, 30, 45)),
    ("wine", 600, (3, 7, 11)),
    ("zoo", 600, (4, 8, 12)),
    ("vehicle", 600, (4, 9, 14)),
    ("waveform", 600, (5, 11, 17)),
    ("dermatology", 600, (8, 17, 25)),
    ("lung", 600, (14, 28, 42)),
    ("arrhythmia", 2000, (39, 79, 119, 159, 199, 239)),
    ("hill-valley", 1000, (25, 50, 75)),
    ("musk1", 1000, (24, 48, 72, 96, 120, 144)),
    ("musk2", 1000, (24, 48, 72, 96, 120, 144)),
    ("colon", 6000,
     (136, 280, 424, 568, 712, 856, 1000, 1144, 1288, 1432, 1576, 1720, 1864)),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=t.RunConfig.data_dir)
    parser.add_argument("--out", type=Path, default=Path("campaign"))
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run these datasets instead of all twenty")
    parser.add_argument("--runs", type=int, default=25)
    parser.add_argument("--max-generations", type=int,
                        default=t.RunConfig.max_generations)
    parser.add_argument("--seed", type=int, default=t.RunConfig.seed)
    args = parser.parse_args(argv)

    layouts = LAYOUTS
    if args.only:
        known = {name for name, *_ in LAYOUTS}
        unknown = sorted(set(args.only) - known)
        if unknown:
            parser.error(f"no layout for {', '.join(unknown)}")
        layouts = [row for row in LAYOUTS if row[0] in args.only]

    # Load every dataset and check its layout and its report directory
    # before the first run, so a missing file, a bad layout or an unwritable
    # --out stops the campaign at once instead of after hours of runs.
    planned = []
    for name, size, means in layouts:
        config = t.RunConfig(
            dataset=name,
            data_dir=args.data_dir,
            tribe_size=size,
            n_tribes=len(means),
            means=means,
            # hill-valley's outermost cardinality bin starts empty under
            # this layout; the plan is usable, so keep the build permissive.
            allow_infeasible=True,
            runs=args.runs,
            max_generations=args.max_generations,
            seed=args.seed,
        )
        try:
            dataset = t.resolve_dataset(config)
            config.plan(dataset.n_features)
            t.check_out_dir(args.out / name)
        except (FileNotFoundError, t.DataError, t.ConfigError) as err:
            print(f"{name}: {err}", file=sys.stderr)
        else:
            planned.append((name, config, dataset))
    if len(planned) < len(layouts):
        return 1

    for name, config, dataset in planned:
        report = t.run_experiment(config, dataset)
        report.save(args.out / name)
        print(f"{name:12s} mean {report.accuracy_mean:6.2f}  "
              f"std {report.accuracy_std:5.2f}  {report.wall_time:8.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
