"""Regenerate the frozen CLI ``tune`` outputs on the toy fixture.

Run from the repo root:  PYTHONPATH=src python3 fixtures/toy/tune/regen.py

For each of the 8 shapes, radiv or raif x uniform or log-discount exposure
x unified or combined scores, ``tune`` runs with the default grids (K=5,
N=15, as in ``toy.cfg``) and writes ``sweep_<shape>.csv`` and
``chosen_<shape>.json`` here. The committed files were written by the
tuner that solved every grid point, so a later tuner that skips solves
must reproduce them byte for byte. They were written under Python 3.11, as
CI's ``golden-files`` job runs it: from 3.12 on, ``sum`` of floats rounds
differently, and some metrics change in their last digit.
"""
import os
import sys

from basket_rerank import cli

HERE = os.path.dirname(os.path.abspath(__file__))
TOY = os.path.dirname(HERE)
SHAPES = [(mode, exposure, cands) for mode in ("radiv", "raif")
          for exposure in ("uniform", "log-discount")
          for cands in ("unified", "combined")]


def tune(mode: str, exposure: str, cands: str, out_dir: str) -> list[str]:
    """Run ``tune`` for one shape; the two files it wrote."""
    shape = f"{mode}_{exposure}_{cands}"
    toy = lambda name: os.path.join(TOY, name)  # noqa: E731
    scores = (["--scores", toy("scores_unified.tsv")] if cands == "unified"
              else ["--repeat-scores", toy("scores_repeat.tsv"),
                    "--explore-scores", toy("scores_explore.tsv")])
    paths = [os.path.join(out_dir, f"sweep_{shape}.csv"),
             os.path.join(out_dir, f"chosen_{shape}.json")]
    code = cli.main([
        "tune", "--train", toy("train.jsonl"),
        "--categories", toy("categories.tsv"), *scores, "--mode", mode,
        "--k", "5", "--n", "15", "--exposure", exposure,
        "--targets", toy("targets_validation.jsonl"),
        "--sweep-out", paths[0], "--chosen-out", paths[1]])
    if code:
        sys.exit(f"tune {shape} exited with {code}")
    return paths


def main() -> None:
    for shape in SHAPES:
        tune(*shape, HERE)


if __name__ == "__main__":
    main()
