"""Top-down stall-accounting rollups over a campaign's results.

The per-cell attribution lives in each result's ``cycacct.`` extras
(see :mod:`repro.obs` for the taxonomy and the conservation
invariant).  This module aggregates those extras *across* cells —
grouped by scheme, the axis the paper's secure-speculation comparison
cares about — so ``python -m repro metrics`` can answer "where do the
NDA slots go that the baseline commits?" from a real campaign store
without re-simulating anything.

Every aggregate re-checks conservation
(``committed + sum(leaves) == width x cycles`` per cell): a cell whose
books do not balance marks its scheme's rollup ``conserved: False``,
which the report surfaces loudly — it would mean the accounting hooks
and the kernel disagree about what happened.
"""

from repro.analysis.reporting import format_table, text_bar_chart
from repro.obs import LEAF_CAUSES


def cycle_account_breakdown(results):
    """Aggregate ``cycacct.`` extras per scheme.

    ``results`` is any iterable of
    :class:`~repro.pipeline.core.SimulationResult` (e.g.
    ``store.iter_results()``).  Cells without accounting extras (older
    stores, obs-disabled runs) are skipped.  Returns ``{scheme_name:
    rollup}`` where each rollup carries ``cells``, ``cycles``,
    ``slots`` (width x cycles), ``committed``, per-leaf slot counts in
    ``leaves``, scheme sub-cause counts in ``scheme_sub``, issue-block
    charges in ``issue_blocks``, summed occupancy integrals in
    ``occupancy``, and the per-cell ``conserved`` verdict.
    """
    schemes = {}
    for result in results:
        account = result.stats.cycle_account()
        if not account:
            continue
        entry = schemes.setdefault(result.scheme_name, {
            "cells": 0, "cycles": 0, "slots": 0, "committed": 0,
            "leaves": {}, "scheme_sub": {}, "issue_blocks": {},
            "occupancy": {}, "conserved": True,
        })
        cycles = account.get("cycles", 0)
        slots = account.get("width", 0) * cycles
        committed = result.stats.committed_instructions
        entry["cells"] += 1
        entry["cycles"] += cycles
        entry["slots"] += slots
        entry["committed"] += committed
        leaf_total = 0
        for name, value in account.items():
            if name in LEAF_CAUSES:
                entry["leaves"][name] = entry["leaves"].get(name, 0) + value
                leaf_total += value
            elif name.startswith("scheme."):
                sub = name[len("scheme."):]
                entry["scheme_sub"][sub] = (
                    entry["scheme_sub"].get(sub, 0) + value)
            elif name.startswith("issue_blocks."):
                label = name[len("issue_blocks."):]
                entry["issue_blocks"][label] = (
                    entry["issue_blocks"].get(label, 0) + value)
            elif name.startswith("occ."):
                res = name[len("occ."):]
                entry["occupancy"][res] = (
                    entry["occupancy"].get(res, 0) + value)
        if leaf_total + committed != slots:
            entry["conserved"] = False
    return schemes


def store_stall_breakdown(store):
    """:func:`cycle_account_breakdown` over a whole result store.

    ``store.iter_results()`` yields lazily-decoded results whose
    statistics come from the manifest index, and the breakdown reads
    nothing else, so no snapshot payload is ever read — the difference
    between an index scan and 10^4 decompress+parse round trips on a
    campaign-sized store.
    """
    return cycle_account_breakdown(store.iter_results())


def _ordered_leaves(leaves):
    """Leaf items in taxonomy order, then any unknown names (future
    accounting generations) alphabetically after them."""
    known = [(leaf, leaves[leaf]) for leaf in LEAF_CAUSES if leaf in leaves]
    extra = sorted((name, value) for name, value in leaves.items()
                   if name not in LEAF_CAUSES)
    return known + extra


def format_stall_report(breakdown, chart_width=42):
    """Render :func:`cycle_account_breakdown` output as a text report.

    One section per scheme: the slot ledger (committed + every leaf,
    with share-of-slots percentages), the scheme-delay sub-cause bar
    chart when the scheme produced one, mean resource occupancies, and
    a conservation verdict.
    """
    out = []
    for scheme in sorted(breakdown):
        entry = breakdown[scheme]
        slots = entry["slots"] or 1
        rows = [("committed", entry["committed"],
                 100.0 * entry["committed"] / slots)]
        rows += [(leaf, value, 100.0 * value / slots)
                 for leaf, value in _ordered_leaves(entry["leaves"])]
        out.append(format_table(
            ("cause", "slots", "% of slots"), rows,
            title="%s — %d cell(s), %d cycles, %d issue slots"
                  % (scheme, entry["cells"], entry["cycles"],
                     entry["slots"]),
            precision=2,
        ))
        if entry["scheme_sub"]:
            labels = sorted(entry["scheme_sub"])
            out.append(text_bar_chart(
                labels, [float(entry["scheme_sub"][label])
                         for label in labels],
                title="scheme-delay sub-causes (slots)",
                width=chart_width,
            ))
        if entry["occupancy"] and entry["cycles"]:
            mean = {res: value / entry["cycles"]
                    for res, value in entry["occupancy"].items()}
            out.append("mean occupancy: " + "  ".join(
                "%s=%.1f" % (res, mean[res]) for res in sorted(mean)))
        out.append("conservation: %s"
                   % ("ok" if entry["conserved"] else
                      "VIOLATED — accounting and kernel disagree"))
        out.append("")
    return "\n".join(out).rstrip("\n")
