"""Ready-made scenarios and synthetic workloads.

- :mod:`aircraft` — the Aircraft Optimization VO of paper Section 3
  (five parties, their credentials, policies, and the Fig. 1 workflow),
  used by the examples and by the Fig. 9 benchmark;
- :mod:`workloads` — synthetic generators (policy chains, credential
  portfolios, ontologies) for the scaling and ablation benchmarks;
- :mod:`market`, :mod:`population`, :mod:`engine` — the open-world
  scenario engine: strategy-driven agent markets, TN-gated membership
  churn, and cheater isolation by decentralized reputation;
- :mod:`experiments` — exemplar experiments with asserted qualitative
  findings (strategy matrix, scarcity market, cheater isolation).

Every long-running workload is one call on its kw-only config, e.g.
``run_scenario(ScenarioConfig(seed=42, agents=20, cheaters=2))`` or
``two_agent_matrix(MatrixConfig(seed=1))``; the chaos soak is
:func:`repro.hardening.soak.run_soak`.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.scenario.aircraft": ("AircraftScenario", "build_aircraft_scenario"),
    "repro.scenario.engine": (
        "RoundState", "ScenarioConfig", "ScenarioReport", "run_scenario",
    ),
    "repro.scenario.experiments": (
        "IsolationConfig", "IsolationReport", "MatrixConfig", "MatrixReport",
        "ScarcityConfig", "ScarcityReport", "cheater_isolation",
        "scarcity_market", "two_agent_matrix",
    ),
    "repro.scenario.market": (
        "AgentStrategy", "MarketConfig", "Trader", "run_market_round",
    ),
    "repro.scenario.population": ("Population", "seat_name"),
})

__all__ = [
    "AircraftScenario",
    "build_aircraft_scenario",
    "AgentStrategy",
    "MarketConfig",
    "Trader",
    "run_market_round",
    "Population",
    "seat_name",
    "ScenarioConfig",
    "ScenarioReport",
    "RoundState",
    "run_scenario",
    "MatrixConfig",
    "MatrixReport",
    "two_agent_matrix",
    "ScarcityConfig",
    "ScarcityReport",
    "scarcity_market",
    "IsolationConfig",
    "IsolationReport",
    "cheater_isolation",
]
