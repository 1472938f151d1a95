import scipy.linalg

from divergence_lab import fitting, scenarios


def test_each_run_fits_once_per_kind_and_divergence(monkeypatch):
    # q1 and q4 share two f-fits within a run, euclidean shares brier's fits
    # (their targets are equal on binary rows), the fits of a form share one
    # probe and its one band factorization, and a second run builds its own
    probes, fits, factors = [], [], []
    probe, fit = fitting.probe, fitting.FitProbe.fit
    cholesky_banded = scipy.linalg.cholesky_banded

    def counting_probe(kind, *args):
        probes.append(kind)
        return probe(kind, *args)

    def counting_fit(self, d, iters=fitting.MAX_ITERS):
        fits.append(d.label)
        return fit(self, d, iters=5)  # the count matters, not the fit

    def counting_cholesky_banded(*args, **kw):
        factors.append(args[0].shape)
        return cholesky_banded(*args, **kw)

    monkeypatch.setattr(fitting, "probe", counting_probe)
    monkeypatch.setattr(fitting.FitProbe, "fit", counting_fit)
    monkeypatch.setattr(scipy.linalg, "cholesky_banded", counting_cholesky_banded)

    every = scenarios.SCENARIOS

    def run_only(*ids):
        monkeypatch.setattr(scenarios, "SCENARIOS", {sid: every[sid] for sid in ids})
        scenarios.run_all(seed=3)

    run_only("q1-counterexample", "q4-uniqueness")
    assert (sorted(probes), len(factors), len(fits)) == (["breg", "fdiv"], 2, 6)
    assert "euclidean" not in fits
    run_only("q1-counterexample", "q4-uniqueness")
    assert (len(probes), len(factors), len(fits)) == (4, 4, 12)
    scenarios.run_scenario("q1-counterexample", seed=3)
    assert (probes[4:], fits[12:]) == (["fdiv"], ["tv_squared", "kl"])
    # scenarios that fit nothing build no probe and factorize nothing
    run_only("q3-sufficiency-n3", "q3-binary-family", "shannon-inequalities")
    assert (len(probes), len(factors), len(fits)) == (5, 5, 14)
