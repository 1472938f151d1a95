from divergence_lab import fitting, scenarios


def test_each_run_fits_once_per_kind_and_divergence(monkeypatch):
    # q1 and q4 share two f-fits within a run; a second run fits again
    calls = []

    def counting(fn):
        def wrapper(d, **kw):
            calls.append(d.label)
            return fn(d, **{**kw, "iters": 5})  # the count matters, not the fit
        return wrapper

    for name in ("fit_f_divergence", "fit_bregman_binary"):
        monkeypatch.setattr(fitting, name, counting(getattr(fitting, name)))
    monkeypatch.setattr(scenarios, "SCENARIOS",
                        {sid: scenarios.SCENARIOS[sid]
                         for sid in ("q1-counterexample", "q4-uniqueness")})
    scenarios.run_all(seed=3)
    assert len(calls) == 8
    scenarios.run_all(seed=3)
    assert len(calls) == 16
    scenarios.run_scenario("q1-counterexample", seed=3)
    assert calls[16:] == ["tv_squared", "kl"]
