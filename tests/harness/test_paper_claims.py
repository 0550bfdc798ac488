"""The paper's claims, checked against one campaign.

Each row of :data:`CLAIMS` states a claim of the paper's evaluation as
a predicate over one experiment's ``report.data``.  Every case reads
one campaign: the standard grid at scale 0.2, the smallest scale tried
at which every row holds (at 0.1, NDA's Table 3 Small/Mega order flips;
at 0.05, Table 1's Small-to-Mega spread is 1.46).  A per-scheme row
from a paper figure or table covers the paper's three designs, the
only schemes those artefacts plot; the variants are held to this
repository's own orderings on 520.omnetpp (section "repo").
"""

from collections import namedtuple

import pytest

from repro.core.registry import secure_scheme_names
from repro.harness.executor import PoolExecutor
from repro.harness.experiments import run_experiment
from repro.harness.runner import CampaignRunner

PAPER_SCHEMES = ("stt-rename", "stt-issue", "nda")
STT = ("stt-rename", "stt-issue")
SECURE_SCHEMES = secure_scheme_names()

#: Slack for orderings read off one benchmark: normalised IPCs are
#: exact (deterministic simulation), but a pair can tie on one cell.
EPS = 0.02

#: One claim about the ``experiment``'s report data.  A statement that
#: names ``{scheme}`` is one case per scheme in ``schemes``; any other
#: is one case, whose predicate gets ``scheme=None``.  ``section`` is
#: the paper's, or "repo" for this repository's orderings.
Claim = namedtuple(
    "Claim", "id section experiment schemes statement predicate")


def _by_width(data):
    return [data[c] for c in ("small", "medium", "large", "mega")]


def _omnetpp(data):
    return data["520.omnetpp"]


def _mean7(data, scheme, config):
    return data[scheme][config]["arithmetic-mean"]


CLAIMS = (
    Claim("table1-ipc-grows-with-width", "Table 1", "table1", ("baseline",),
          "baseline IPC grows with core width",
          lambda d, s: _by_width(d) == sorted(_by_width(d))),
    Claim("table1-small-to-mega-spread", "Table 1", "table1", ("baseline",),
          "Mega's baseline IPC is 1.6-4.0x Small's (the paper's is 2.76x)",
          lambda d, s: 1.6 < d["mega"] / d["small"] < 4.0),
    Claim("figure6-mean-loses-ipc", "Figure 6", "figure6", PAPER_SCHEMES,
          "{scheme} loses IPC on average at Mega",
          lambda d, s: d["arithmetic-mean"][s] < 1.0),
    Claim("figure6-issue-beats-rename", "Figure 6", "figure6", STT,
          "STT-Issue's mean IPC is at least STT-Rename's",
          lambda d, s: d["arithmetic-mean"]["stt-issue"]
          >= d["arithmetic-mean"]["stt-rename"]),
    Claim("figure6-bwaves-flat", "Figure 6", "figure6", ("stt-issue",),
          "streaming 503.bwaves keeps over 0.95 of its IPC under STT-Issue",
          lambda d, s: d["503.bwaves"]["stt-issue"] > 0.95),
    Claim("figure6-roms-flat", "Figure 6", "figure6", ("nda",),
          "streaming 554.roms keeps over 0.95 of its IPC under NDA",
          lambda d, s: d["554.roms"]["nda"] > 0.95),
    Claim("omnetpp-baseline-bounds", "repo", "figure6", SECURE_SCHEMES,
          "on 520.omnetpp the unsafe baseline bounds {scheme}",
          lambda d, s: _omnetpp(d)[s] <= 1.0 + EPS),
    Claim("omnetpp-fence-is-the-floor", "repo", "figure6",
          tuple(s for s in SECURE_SCHEMES if s != "fence"),
          "on 520.omnetpp fence bounds {scheme} from below",
          lambda d, s: _omnetpp(d)["fence"] <= _omnetpp(d)[s] + EPS),
    Claim("omnetpp-fence-bites", "repo", "figure6", ("fence",),
          "fence costs 520.omnetpp over 0.1 of its IPC: the cell speculates",
          lambda d, s: _omnetpp(d)["fence"] < 0.9),
    Claim("omnetpp-selective-delay-recovers-ipc", "repo", "figure6",
          ("nda", "delay-on-miss"),
          "on 520.omnetpp delay-on-miss recovers IPC over NDA",
          lambda d, s: _omnetpp(d)["nda"]
          <= _omnetpp(d)["delay-on-miss"] + EPS),
    Claim("omnetpp-issue-beats-rename", "repo", "figure6", STT,
          "on 520.omnetpp STT-Issue does not lose to STT-Rename (Section 9.1)",
          lambda d, s: _omnetpp(d)["stt-rename"]
          <= _omnetpp(d)["stt-issue"] + EPS),
    Claim("figure7-small-above-mega", "Figure 7", "figure7", PAPER_SCHEMES,
          "{scheme}'s mean normalised IPC is lower on Mega than on Small",
          lambda d, s: _mean7(d, s, "small") > _mean7(d, s, "mega")),
    Claim("figure7-small-barely-hit", "Figure 7", "figure7", PAPER_SCHEMES,
          "Small keeps over 0.97 of its mean IPC under {scheme}",
          lambda d, s: _mean7(d, s, "small") > 0.97),
    Claim("figure8-loss-grows-with-ipc", "Figure 8", "figure8", PAPER_SCHEMES,
          "{scheme}'s relative IPC falls as baseline IPC grows (slope < 0)",
          lambda d, s: d[s]["slope"] < 0),
    Claim("figure8-redwood-cove-worst", "Figure 8", "figure8", PAPER_SCHEMES,
          "{scheme}'s Redwood Cove estimate is below every measured point",
          lambda d, s: d[s]["redwood_cove_linear"]
          < min(y for _x, y in d[s]["points"])),
    Claim("figure10-rename-timing-falls", "Figure 10", "figure10",
          ("stt-rename",),
          "STT-Rename's relative timing falls as baseline IPC grows",
          lambda d, s: d["stt-rename"]["slope"] < 0),
    Claim("table3-nda-overtakes-stt", "Section 8.4, Table 3", "table3",
          PAPER_SCHEMES,
          "with timing counted, NDA > STT-Issue > STT-Rename at Mega",
          lambda d, s: d["nda"]["mega"] > d["stt-issue"]["mega"]
          > d["stt-rename"]["mega"]),
    Claim("table3-falls-with-width", "Table 3", "table3", PAPER_SCHEMES,
          "{scheme}'s normalised performance is lower on Mega than on Small",
          lambda d, s: d[s]["small"] > d[s]["mega"]),
    Claim("table3-intel-below-mega", "Table 3", "table3", PAPER_SCHEMES,
          "{scheme}'s Redwood Cove-class estimate is below its Mega value",
          lambda d, s: d[s]["intel"] < d[s]["mega"]),
    Claim("table4-nda-saves-power", "Table 4", "table4", ("nda",),
          "NDA draws less power than baseline",
          lambda d, s: d["nda"]["power"] < 1.0),
    Claim("table4-issue-power-above-nda", "Table 4", "table4",
          ("stt-issue", "nda"), "STT-Issue draws more power than NDA",
          lambda d, s: d["stt-issue"]["power"] > d["nda"]["power"]),
    Claim("table5-loss-grows-with-width", "Table 5", "table5", PAPER_SCHEMES,
          "{scheme}'s IPC loss on Mega is at least its Medium loss less 0.02",
          lambda d, s: d["boom-mega"][s] >= d["boom-medium"][s] - 0.02),
    Claim("table5-gem5-baselines", "Table 5", "table5", ("stt-rename", "nda"),
          "gem5-STT's baseline IPC is over 0.8x gem5-NDA's",
          lambda d, s: d["gem5-stt"]["baseline_ipc"]
          > d["gem5-nda"]["baseline_ipc"] * 0.8),
    Claim("exchange2-rename-anomaly", "Section 9.2", "exchange2",
          ("stt-issue", "nda"),
          "STT-Rename's exchange2 IPC is below {scheme}'s",
          lambda d, s: d["stt-rename"]["ipc"] < d[s]["ipc"]),
    Claim("l1-faster-higher-ipc", "Section 9.5", "ablation-l1-latency",
          ("baseline",),
          "baseline IPC with a 1-cycle L1 is at least that with a 4-cycle L1",
          lambda d, s: d[1]["baseline_ipc"] >= d[4]["baseline_ipc"]),
)


CASES = [pytest.param(c, s, id="%s-%s" % (c.id, s) if s else c.id)
         for c in CLAIMS
         for s in (c.schemes if "{scheme}" in c.statement else (None,))]


@pytest.fixture(scope="module")
def reports():
    runner = CampaignRunner(scale=0.2, store=None)
    runner.run_grid(executor=PoolExecutor(jobs=2))
    return {experiment: run_experiment(experiment, runner)
            for experiment in sorted({c.experiment for c in CLAIMS})}


@pytest.mark.parametrize("claim, scheme", CASES)
def test_claim(reports, claim, scheme):
    """A failing case prints its statement and the rendered report."""
    report = reports[claim.experiment]
    assert claim.predicate(report.data, scheme), "%s (%s): %s\n\n%s" % (
        claim.id, claim.section, claim.statement.format(scheme=scheme),
        report)
