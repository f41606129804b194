"""Tests for the scheduling layer (``repro.sched``) and the policy zoo.

Covers the registry/metadata contract, the heterogeneity (speed-factor)
model, rendezvous hashing, the fluid-model choice rules — including
the golden-fingerprint pins that hold every policy in both execution
models (and the pre-zoo SWEB path) bit-identical across refactors of
the policy code — and the cross-model
property claims the X11 tournament (docs/SCHEDULING.md) is built on:
po2 never loses to random, JSQ wins the homogeneous 2-node toy, and
the fluid and per-client models agree on the headline orderings.
"""

from functools import partial

import pytest

from repro.cluster import heterogeneous_meiko, meiko_cs2
from repro.core import make_policy
from repro.experiments.runner import run_scenario
from repro.experiments.shard import ScenarioCell, run_cell
from repro.experiments.tournament import (
    CLUSTERS,
    GOLDEN_SWEB_50K,
    POPULARITY,
    client_scenario,
    fluid_cell,
    make_cells,
)
from repro.sched import (
    MIXED_GENERATION,
    POLICIES,
    SpeedFactors,
    fluid_policy_names,
    per_client_policy_names,
    policy_names,
    preference_order,
    rank_preferences,
    stable_hash64,
)
from repro.sim import RandomStreams
from repro.workload import FluidScenario, run_fluid


def _fluid_mean(result):
    return result.registry.histogram("fluid.latency_s").mean


# -- registry --------------------------------------------------------------

def test_registry_metadata_complete():
    assert set(policy_names()) == set(POLICIES)
    for name, info in POLICIES.items():
        assert info.name == name
        assert info.summary
        assert info.reads
        assert info.complexity


def test_registry_and_factory_agree():
    rng = RandomStreams(seed=3)
    for name in per_client_policy_names():
        policy = make_policy(name, rng=rng)
        assert policy.name == name
    with pytest.raises(ValueError):
        make_policy("frobnicator")


def test_fluid_names_subset_and_validated():
    assert set(fluid_policy_names()) <= set(policy_names())
    for name in fluid_policy_names():
        FluidScenario(name="ok", policy=name, n_requests=10).validate()
    with pytest.raises(ValueError):
        FluidScenario(name="bad", policy="cpu-only", n_requests=10).validate()


# -- speed factors ---------------------------------------------------------

def test_speed_factors_take_and_uniform():
    assert MIXED_GENERATION.num_nodes == 6
    assert not MIXED_GENERATION.homogeneous
    assert sum(MIXED_GENERATION.cpu) == pytest.approx(6.0)
    sub = MIXED_GENERATION.take(4)
    assert sub.num_nodes == 4
    assert sub.cpu == MIXED_GENERATION.cpu[:4]
    assert SpeedFactors.uniform(3).homogeneous
    with pytest.raises(ValueError):
        SpeedFactors(cpu=(1.0, -1.0), disk=(1.0, 1.0), mem=(1.0, 1.0))


def test_heterogeneous_meiko_scales_node_specs():
    hom = meiko_cs2(4)
    het = heterogeneous_meiko(4)
    factors = MIXED_GENERATION.take(4)
    assert het.name == "hetmeiko"
    for i, (h, x) in enumerate(zip(hom.nodes, het.nodes)):
        assert x.cpu_speed == pytest.approx(h.cpu_speed * factors.cpu[i])
        assert x.disk_bandwidth == pytest.approx(
            h.disk_bandwidth * factors.disk[i])
        assert x.mem_bandwidth == pytest.approx(
            h.mem_bandwidth * factors.mem[i])


def test_with_speed_factors_checks_length():
    with pytest.raises(ValueError):
        meiko_cs2(4).with_speed_factors(MIXED_GENERATION)  # 6 != 4


# -- rendezvous hashing ----------------------------------------------------

def test_stable_hash_is_stable_and_spread():
    assert stable_hash64("path-0") == stable_hash64("path-0")
    assert stable_hash64("path-0") != stable_hash64("path-1")


def test_preference_order_is_permutation():
    for key in ("a", "b", 17):
        order = preference_order(key, 5)
        assert sorted(order) == list(range(5))
    assert preference_order("a", 5) == preference_order("a", 5)
    prefs = rank_preferences(8, 4)
    assert len(prefs) == 8
    assert all(sorted(p) == list(range(4)) for p in prefs)
    # different keys spread their first choice around
    assert len({p[0] for p in prefs}) > 1


# -- golden fingerprints (bit-identity of the refactor) --------------------

GOLDEN_UNIFORM_50K = ("19866200d49e9a194f7070c6c855d723"
                      "eb8ead718bb97fa91e5cf70357174409")
GOLDEN_2NODE_20K = ("f10c8478b3355083fa66fc7dc04bc471"
                    "0dbcbb1c0009ad845727316aa5f1e60f")


def test_default_sweb_fingerprint_is_pre_zoo():
    fp = run_fluid(FluidScenario(n_requests=50_000)).fingerprint
    assert fp == GOLDEN_SWEB_50K


def test_uniform_popularity_fingerprint_is_pre_zoo():
    fp = run_fluid(FluidScenario(n_requests=50_000, alpha=None)).fingerprint
    assert fp == GOLDEN_UNIFORM_50K


def test_small_cluster_fingerprint_is_pre_zoo():
    fp = run_fluid(FluidScenario(nodes=2, rate=900.0,
                                 n_requests=20_000)).fingerprint
    assert fp == GOLDEN_2NODE_20K


def test_unit_speed_factors_match_the_homogeneous_sweb_loop():
    """Unit factors route sweb through the shared batch loop; dividing
    by 1.0 is exact, so it must land on the homogeneous loop's golden."""
    scenario = FluidScenario(n_requests=50_000, cpu_factors=(1.0,) * 6)
    assert scenario.heterogeneous
    assert run_fluid(scenario).fingerprint == GOLDEN_SWEB_50K


#: every fluid policy on every tournament grid cell at 20 k requests
#: (``fluid_cell(policy, cluster, popularity, n_requests=20_000)``)
FLUID_GRID_20K = {
    ("sweb", "hom", "uniform"):
        "eb9124ae31c4941157b847acbd45904d7edc230f210ff676da8ab0377e4f3eb4",
    ("sweb", "hom", "zipf"):
        "470ff47051752d16d1fe05f7af93f933b4921fa6bfb78157432567d7058d8325",
    ("sweb", "het", "uniform"):
        "71e0296f977ef888fe316b2a74ee12fe5ed472ad6639d33fd6dcc2d576c7064f",
    ("sweb", "het", "zipf"):
        "fbd68c51c2517a2467d6c48e9a07d32e043bc1c3446d25f4410c42d1362ee3a0",
    ("round-robin", "hom", "uniform"):
        "7990a85fa0b184bce3a4ef4a354a2d33bb044845567ee8f3fc0d965dbae5cd14",
    ("round-robin", "hom", "zipf"):
        "d2e98378a4b254c84774298130e322fecb9601c53648b35ca75b55d174ca1e6d",
    ("round-robin", "het", "uniform"):
        "faf8be44dfeab4bdc6236859734ad167f68832cb0de43e04ca97317f7686df67",
    ("round-robin", "het", "zipf"):
        "105461d51597f7b461c5651ee622912c36ddced01e13ceb5e9c1c4537c31c571",
    ("random", "hom", "uniform"):
        "084c94becc3f99eb966cfb6246d0281244ffcd811bd18930cf41cb1455020907",
    ("random", "hom", "zipf"):
        "74fa45e955bcf431a9948a7d76dac479f2a972768be2d16bd6056a99db95e024",
    ("random", "het", "uniform"):
        "a615ef325dee90903042a92f6978a0551537829ce69b0b7825f8244d1b0883db",
    ("random", "het", "zipf"):
        "34982037b5844f738409eb5558cece281b1177733bd8e552b0cf70e99e19a308",
    ("jsq", "hom", "uniform"):
        "099d8c2e1bb0855659c7b29d32eef71a336ef57a6cf8e062ff3c9e0b3a9c3eb0",
    ("jsq", "hom", "zipf"):
        "92c0698ad679b71a6767297439b9749eacc03138a259e3ca43e5a34299ad659b",
    ("jsq", "het", "uniform"):
        "3c9df8ea26b24a65f15e72059843f8f35fae4de355bd0e6602dd2a00f43aeb3a",
    ("jsq", "het", "zipf"):
        "7d56f94c08dd21b5a0d1459613ebf567e44a9b017ab29b98f0e538f283451518",
    ("po2", "hom", "uniform"):
        "4c41801bcafbcce8bcb08f2889ce418d67161d9dffb802f2a5f31a9d15757666",
    ("po2", "hom", "zipf"):
        "ddcfe1c1f4ab39b8b75598f33e021ac8dad35203da9b197d3423b70ee08cfea3",
    ("po2", "het", "uniform"):
        "4cd95cea68ebc25488bf3e617672adf9d1482c54ce6f5b98b7fbc21f6d9049ec",
    ("po2", "het", "zipf"):
        "5b5ba7965fe4087963ff10c49546b548538e4731beab7139d0a20c755e6e8e98",
    ("lwl", "hom", "uniform"):
        "4a8ea816582087caf47598af14f111c710ab4060a5767700b9ce779241b3fca3",
    ("lwl", "hom", "zipf"):
        "fe3ec31a99a224817d4e1a16c943c16424b51372a7596852f41b1548a8c90963",
    ("lwl", "het", "uniform"):
        "760be448849f5e7798197e621d86a7446f98774d4eed3ba897fafb48fc2d9c6a",
    ("lwl", "het", "zipf"):
        "903f8988b2180badeaadd5c28c71a9ee32efe45e0d1dda5cea7183862348093b",
    ("chash", "hom", "uniform"):
        "a89b89026469a8f02f2f394386647a0076f839bdff27433c08f3e04c73085a97",
    ("chash", "hom", "zipf"):
        "32850288ccbe337656996edb48410e6f54402acefb5a2b5613a2c9b9ebe69fb0",
    ("chash", "het", "uniform"):
        "eb1b3faf5cb2f0c399b616f702ff5f173ed8da3d4061b0ac58786cb3c9196c75",
    ("chash", "het", "zipf"):
        "93c5c2a3ab23a40195d62bf781f51ba796be6648639dafaba29c23b387eabca9",
}


#: one-node cells: every request lands on node 0, so the two policies
#: agree, but neither may draw, spill or fail on a single candidate
ONE_NODE_20K = {
    "po2":
        "9127c838429014788404095ae946de2bafbf3c338e789315c4f81e5112deb474",
    "chash":
        "9127c838429014788404095ae946de2bafbf3c338e789315c4f81e5112deb474",
}

#: ``shard.run_cell`` fingerprint of ``tournament.client_scenario(p)``
#: for every per-client policy (full httpd stack, mixed-generation Meiko)
PER_CLIENT = {
    "sweb":
        "c635138b2470e5fa4c69ddeceebf2065a18a2b5a5899acddd4a7f14e79a89c38",
    "round-robin":
        "1ecb21b89ef73d461c5c06c45550000d4b137184e671d772874e429b9120718a",
    "file-locality":
        "1c1e395dd2f9e3965b6fba749c937846c9ad5e6fc7394c8eb1202c74d60e7910",
    "cpu-only":
        "911dd00fc46470871ddc5b48cc068f37df3910e2408f8854641315c8c8109ffd",
    "random":
        "79c0f48534cbe3e0d4eb3f32863e733d86841e108afdf4f710ae33aaeafe4f4c",
    "jsq":
        "aa07d05a7448d237ce59fd94e149675276ef776a87f6b1fef9cf58ec1b1ce614",
    "po2":
        "bf5700816f426eda5f6869162701b664f1e768b8a9a026423b0716898c047cfd",
    "lwl":
        "628b1880ec16bde4037c392c84720f283732e96ab160fa930fbdd0b6ed31ae49",
    "chash":
        "b11c4224e50b2a9f4d0736fc706c0987f86954a4125cbeae8404cbe704733dc5",
}


@pytest.mark.parametrize("policy,cluster,popularity", sorted(FLUID_GRID_20K))
def test_fluid_grid_fingerprints(policy, cluster, popularity):
    cell = fluid_cell(policy, cluster, popularity, n_requests=20_000)
    fp = run_fluid(cell.scenario, keep_records=False).fingerprint
    assert fp == FLUID_GRID_20K[(policy, cluster, popularity)]


def test_fluid_grid_pins_cover_every_policy():
    assert set(FLUID_GRID_20K) == {(p, c, z) for p in fluid_policy_names()
                                   for c in CLUSTERS for z in POPULARITY}


@pytest.mark.parametrize("policy", sorted(ONE_NODE_20K))
def test_one_node_fluid_fingerprints(policy):
    scenario = FluidScenario(name=f"one-{policy}", nodes=1, rate=900.0,
                             n_requests=20_000, policy=policy)
    assert run_fluid(scenario).fingerprint == ONE_NODE_20K[policy]


def test_per_client_policy_fingerprints():
    assert set(PER_CLIENT) == set(per_client_policy_names())
    assert len(set(PER_CLIENT.values())) == len(PER_CLIENT)
    for policy in per_client_policy_names():
        cell = ScenarioCell(cell_id=f"client/{policy}",
                            factory=partial(client_scenario, policy))
        assert run_cell(cell).fingerprint == PER_CLIENT[policy], policy


# -- fluid policy kernels --------------------------------------------------

@pytest.mark.parametrize("policy", fluid_policy_names())
def test_fluid_policies_deterministic_on_het(policy):
    cell = fluid_cell(policy, "het", "zipf", n_requests=5_000)
    a = run_fluid(cell.scenario)
    b = run_fluid(cell.scenario)
    assert a.fingerprint == b.fingerprint
    assert a.served == b.served


@pytest.mark.parametrize("cluster", ("hom", "het"))
@pytest.mark.parametrize("popularity", ("uniform", "zipf"))
def test_po2_never_worse_than_random(cluster, popularity):
    """Two choices beat zero choices on every tournament grid cell."""
    def mean(policy):
        cell = fluid_cell(policy, cluster, popularity, n_requests=30_000)
        return _fluid_mean(run_fluid(cell.scenario))
    assert mean("po2") <= mean("random")


def test_jsq_wins_homogeneous_two_node_toy():
    """On 2 identical nodes JSQ is the optimal count-based rule."""
    def mean(policy):
        s = FluidScenario(name=f"toy-{policy}", nodes=2, rate=1_800.0,
                          n_requests=40_000, policy=policy, seed=7)
        return _fluid_mean(run_fluid(s))
    jsq = mean("jsq")
    for rival in ("round-robin", "random", "po2", "lwl"):
        assert jsq <= mean(rival), rival


# -- cross-model agreement -------------------------------------------------

def test_fluid_and_per_client_models_agree_on_headline_ordering():
    """Both models rank load-aware sweb/jsq above load-blind random."""
    def fmean(policy):
        cell = fluid_cell(policy, "het", "uniform", n_requests=30_000)
        return _fluid_mean(run_fluid(cell.scenario))

    def cmean(policy):
        return run_scenario(client_scenario(policy)).mean_response_time

    for mean in (fmean, cmean):
        random = mean("random")
        assert mean("sweb") < random
        assert mean("jsq") < random


# -- tournament grid structure ---------------------------------------------

def test_make_cells_covers_the_grid():
    cells = make_cells(1_000)
    assert len(cells) == len(fluid_policy_names()) * 4
    ids = [c.cell_id for c in cells]
    assert len(set(ids)) == len(ids)
    for cell in cells:
        cell.scenario.validate()
