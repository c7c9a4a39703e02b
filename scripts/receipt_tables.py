#!/usr/bin/env python3
"""Render the numeric tables of EXPERIMENTS.md from BENCH_vmc.json.

    python3 scripts/receipt_tables.py                          # print markdown
    python3 scripts/receipt_tables.py --check EXPERIMENTS.md   # fail on drift

Prints the E-PRUNE, E-TIER, E-AXIOM, RA-frontline, E-STREAM,
bounded-memory and E-SMALL tables as markdown, each between a pair of marker
comments:

    <!-- receipt: NAME -->
    | ... |
    <!-- /receipt -->

Paste each block into the document. With --check, the document must hold
every block exactly once, and the text between each pair of markers must
equal the rendered table; otherwise the differing blocks are printed and the
exit status is 1.
"""

import argparse
import json
import re
import sys

BLOCK = re.compile(r"<!-- receipt: (\S+) -->\n(.*?)<!-- /receipt -->", re.S)


def table(header, rows):
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def n(x):
    return f"{x:,}"


def render(d):
    """The receipt tables, keyed by block name."""
    out = {}
    out["e-prune"] = table(
        ["case", "config", "states", "window prunes", "symmetry prunes",
         "verdict"],
        [[r["case"], r["config"], n(r["states"]), n(r["window_prunes"]),
          n(r["symmetry_prunes"]), r["verdict"]]
         for r in d["prune_ablation"]])
    out["e-tier"] = table(
        ["family", "tier", "traces", "addresses", "frontline", "escalated",
         "coh/inc/unk"],
        [[r["family"], r["tier"], r["traces"], r["addresses"],
          r["frontline_decided"], r["escalated"],
          f"{r['coherent']}/{r['incoherent']}/{r['unknown']}"]
         for r in d["tier_ablation"]])
    # E-AXIOM: the harness asserts that both engines agree with the SAT
    # oracle on every trace and never return unknown, so the compiled rows
    # stand for both engines.
    compiled = [r for r in d["eaxiom"] if r["engine"] == "compiled"]
    families = list(dict.fromkeys(r["family"] for r in compiled))
    models = list(dict.fromkeys(r["model"] for r in compiled))
    cells = {(r["family"], r["model"]): r for r in compiled}
    out["e-axiom"] = table(
        ["model"] + [f"{f} ({cells[(f, models[0])]['traces']})"
                     for f in families],
        [[m] + [f"{cells[(f, m)]['consistent']}/{cells[(f, m)]['violating']}"
                for f in families]
         for m in models])
    ra = d["eaxiom_ra_frontline"]
    out["ra-frontline"] = table(["traces", "frontline decided"],
                                [[ra["traces"], ra["frontline_decided"]]])
    out["e-stream"] = table(
        ["streams", "window", "events", "detections", "peak windows",
         "budget (streams × slack)", "incoherent", "batch parity"],
        [[r["streams"], r["window"], n(r["events"]), r["detections"],
          r["peak_retained_windows"],
          f"≤ {r['streams'] * r['window_slack']}", r["incoherent"],
          "✓" if r["verdict_parity"] else "✗"]
         for r in d["estream"]])
    bm = d["estream_bounded_memory"]
    out["bounded-memory"] = table(
        ["length", "window", "events", "peak windows",
         "peak windows, recorder on"],
        [["1×", bm["window"], n(bm["events"]), bm["peak_retained_windows"],
          bm["recorder_peak_retained_windows"]],
         ["10×", bm["window"], n(bm["events_10x"]),
          bm["peak_retained_windows_10x"],
          bm["recorder_peak_retained_windows_10x"]]])
    # E-SMALL: the harness asserts that the compiled engine, the SAT engine
    # and (for the serialization models) the oracle agree on every trace.
    sm = d["small_scope"]
    out["small-scope"] = table(
        ["model", f"consistent (of {n(sm['traces'])} traces)"],
        [[r["model"], n(r["consistent"])] for r in sm["models"]])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("receipt", nargs="?", default="BENCH_vmc.json")
    ap.add_argument("--check", metavar="DOC",
                    help="fail if a rendered table row is missing from DOC")
    args = ap.parse_args()
    tables = render(json.load(open(args.receipt)))
    blocks = {name: f"<!-- receipt: {name} -->\n{body}<!-- /receipt -->"
              for name, body in tables.items()}
    if not args.check:
        print("\n\n".join(blocks.values()))
        return
    found = BLOCK.findall(open(args.check).read())
    names = [name for name, _ in found]
    stale = [blocks.get(name, f"(unknown block {name!r})")
             for name, body in found if tables.get(name) != body]
    stale += [blocks[name] for name in tables if names.count(name) != 1]
    if stale:
        print(f"{args.check}: {len(stale)} receipt block(s) missing, repeated, "
              f"unknown or stale; the current ones are:", file=sys.stderr)
        print("\n\n".join(stale), file=sys.stderr)
        sys.exit(1)
    print(f"    ok ({len(tables)} receipt blocks in {args.check} equal "
          f"the rendered tables)")


if __name__ == "__main__":
    main()
