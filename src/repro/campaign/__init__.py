"""Verification campaigns: scenario sweeps over the paper's E5 evaluation.

The paper's evaluation (Section III-A, experiment E5) does not verify *one*
pipeline -- it verifies a family of them: the reconfigurable OPE pipeline at
every supported depth, with correctly and incorrectly initialised control
registers, driven by on-chip LFSR stimulus and operated across a supply
-voltage sweep.  This package reproduces that campaign style as a subsystem:

* :mod:`~repro.campaign.scenario` -- :class:`ScenarioSpec` declares the grid
  axes and :func:`generate_scenarios` expands them.  Each axis maps back to
  the paper: **depth** is the OPE window size selected by token
  initialisation (Section III, Fig. 6), **static prefix** is the always-on
  stage split (the chip's ``s1``), **holes** inject the non-contiguous
  configurations whose deadlocks the paper reports catching by verification
  (Section III-A), **LFSR seeds** select the chip's random-mode stimulus
  (Section IV) for a token-game smoke run, and **voltages** annotate the
  operating points of the E5 voltage sweep (Fig. 9).
* :mod:`~repro.campaign.jobs` -- the picklable :class:`VerificationJob`
  unit of work: a built-in model-family name plus plain-data options (including
  the checker choice and any named custom Reach properties), never a live
  model, so jobs cross process boundaries and hash into cache keys.
* :mod:`~repro.campaign.runner` -- :func:`run_campaign` fans jobs out over
  supervised worker processes with per-job timeouts and crash containment.
* :mod:`~repro.campaign.cache` -- the on-disk verdict cache keyed by a
  canonical Petri-net fingerprint, so re-runs only verify changed models.
* :mod:`~repro.campaign.report` -- :class:`CampaignReport` with JSON and
  markdown renderers for CI artifacts and the bench-regression gate.

Typical use (also available as ``repro-dfs campaign``)::

    from repro.campaign import ScenarioSpec, generate_scenarios, run_campaign

    spec = ScenarioSpec(depths=range(2, 4), holes=(0, 1))
    jobs, skipped = generate_scenarios(spec)
    report = run_campaign(jobs, parallelism=4, cache_dir=".repro-campaign-cache",
                          spec=spec, skipped=skipped)
    print(report.render_text())
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cache": ["ResultCache", "net_fingerprint", "options_digest"],
    ".jobs": [
        "DEFAULT_PROPERTIES",
        "FACTORIES",
        "VerificationJob",
        "build_pipeline_model",
        "resolve_factory",
    ],
    ".report": ["CampaignReport"],
    ".runner": ["CampaignResult", "classify_verdict", "run_campaign", "start_method"],
    ".scheduler": ["CampaignScheduler", "JobTicket"],
    ".scenario": ["ScenarioSpec", "enumerate_grid", "generate_scenarios"],
})
