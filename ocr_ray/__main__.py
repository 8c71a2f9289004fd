"""CLI entry point: ``python -m ocr_ray --input pages/ --output out/``.

Runs the resumable extraction pipeline over a pages Parquet directory.
Owns its Ray session (guarded — the library itself never calls ray.init);
suitable for ``ray job submit`` on a real cluster, where ray.init() picks
up the cluster address from the environment.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="ocr_ray", description=__doc__)
    ap.add_argument("--input", required=True, help="pages parquet file/dir")
    ap.add_argument("--output", required=True, help="output directory")
    ap.add_argument("--partitions", type=int, default=32, help="url-hash partitions (resume granule)")
    ap.add_argument("--mode", choices=("fused", "exploded"), default="fused")
    ap.add_argument("--footnote-mode", choices=("keep", "skip", "insert"), default="keep")
    ap.add_argument(
        "--batch-size", type=int, default=None,
        help="pages per extraction batch (default: run_extraction's)",
    )
    ap.add_argument("--no-resume", action="store_true", help="ignore existing manifests")
    ap.add_argument("--num-cpus", type=int, default=None, help="local-mode CPU cap")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True}
        if args.num_cpus:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from .pipelines.extraction import run_extraction

    opts = {} if args.batch_size is None else {"batch_size": args.batch_size}
    stats = run_extraction(
        args.input,
        args.output,
        n_partitions=args.partitions,
        mode=args.mode,
        footnote_mode=args.footnote_mode,
        resume=not args.no_resume,
        **opts,
    )
    print(json.dumps(stats))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
