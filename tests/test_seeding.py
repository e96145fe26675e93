import collections
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from clusteralign import cli, seeding, trainer as trainer_module
from clusteralign.seeding import derive_seed, derived_seed_words, seeded_rng

# The word edges of the dropout key layout: a seed of one word and of two,
# and the plan's last iteration (TrainConfig holds total_iters below 2**31)
# and the hash's.
SEED_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
ITERATION_EDGES = (0, 2**31 - 1, 2**32 - 1)


def layout_rows(count, seed):
    """(seed, iteration, slot) rows of the dropout key layout; seeds take
    one or two 32-bit words, edges included, so one call mixes both."""
    rng = random.Random(seed)

    def pick(edges, bits):
        return rng.choice(edges) if rng.random() < 0.25 else rng.getrandbits(bits)

    return [(pick(SEED_EDGES, rng.choice((32, 64))), pick(ITERATION_EDGES, 32), rng.randint(1, 4))
            for _ in range(count)]


def test_derived_states_and_first_draws_match_seeded_rng_of_derive_seed():
    # A derived seed is a one- or two-word key of its own.
    rows = layout_rows(1000, 7)
    assert {seed for seed, _, _ in rows} >= set(SEED_EDGES)
    assert {iteration for _, iteration, _ in rows} >= set(ITERATION_EDGES)
    assert np.array_equal(derived_seed_words(rows),
                          [np.random.SeedSequence(derive_seed(*row)).generate_state(8)
                           for row in rows])
    # The plan seeds each stream from its words; its iterations stay below
    # 2**31.
    for seed, iteration, slot in rows[:100]:
        iteration %= 2**31
        plan = trainer_module._DropoutPlan((seed,), 4)
        assert np.array_equal(plan.uniforms(iteration, (slot,), 37),
                              [seeded_rng(derive_seed(seed, iteration, slot)).random(37)])


def test_a_zero_high_word_hashes_as_the_pad_of_a_one_word_seed():
    # derived_seed_words hashes every derived seed as two words. A seed under
    # 2**32, too rare to meet by chance, is one word to SeedSequence, and
    # the pad of a short entropy is a zero word too.
    low = np.array([0, 1, 7, 2**31, 2**32 - 1], dtype=np.uint32)
    words = np.stack([low, np.zeros_like(low)], axis=-1)
    assert np.array_equal(seeding._generate(words, 8),
                          [np.random.SeedSequence(int(w)).generate_state(8) for w in low])


def test_plan_replays_a_block_after_leaving_it():
    # Leaving a block drops its words; coming back hashes them again.
    plan = trainer_module._DropoutPlan((1, 3), 2)
    first = plan.uniforms(0, (1, 2), 5)
    plan.uniforms(9 * trainer_module._PLAN_BLOCK, (1,), 1000)
    assert np.array_equal(plan.uniforms(0, (1, 2), 5), first)


@pytest.mark.parametrize("seeds", [(3, 4, 5), (2**63 + 1, 0), SEED_EDGES],
                         ids=["small", "64-bit", "word-edges"])
def test_dropout_plan_replays_seeded_rng_of_each_key(seeds):
    # Slot-major rows of (slot, seed); a block boundary falls inside the
    # iterations asked for, and the last asks for the block of the last
    # iteration TrainConfig allows.
    plan = trainer_module._DropoutPlan(seeds, 3)
    block = trainer_module._PLAN_BLOCK
    for iteration in (0, 1, block - 1, block, 5 * block + 3, 2, 2**31 - 2):
        for slots in ((1, 2), (1,), (2,), (3,), (1, 2, 3)):
            draws = plan.uniforms(iteration, slots, 11)
            expected = [seeded_rng(derive_seed(seed, iteration, slot)).random(11)
                        for slot in slots for seed in seeds]
            assert np.array_equal(draws, expected)


def test_no_two_call_sites_of_a_run_start_a_generator_from_one_state(tmp_path, monkeypatch):
    # Every PCG64 a run makes, or restarts from a stored state, is recorded
    # with its start state and the innermost clusteralign function outside
    # seeding that asked for it. A 2-seed Pi run with dropout and a snapshot
    # after every step makes the keys of every component meet.
    base = np.random.PCG64
    seeding_file = Path(seeding.__file__).resolve()
    callers = {str(path) for path in seeding_file.parent.glob("*.py")} - {str(seeding_file)}
    made = collections.defaultdict(set)

    def record(bits):
        state = base.state.__get__(bits)["state"]
        frame = sys._getframe(2)
        while str(Path(frame.f_code.co_filename).resolve()) not in callers:
            frame = frame.f_back
        function = frame.f_code.co_qualname.split(".<locals>")[0]
        site = f"{Path(frame.f_code.co_filename).name}:{function}"
        made[state["state"], state["inc"]].add(site)

    class PCG64(base):
        # The class name is the one a stored state names.
        def __init__(self, *args):
            super().__init__(*args)
            record(self)

        @property
        def state(self):
            return base.state.__get__(self)

        @state.setter
        def state(self, value):
            base.state.__set__(self, value)
            record(self)

    monkeypatch.setattr(np.random, "PCG64", PCG64)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scenario": "multimode", "seeds": [0, 1], "eval_every": 1,
        "dataset": {"n_per_mode": 30},
        "train": {"total_iters": 30, "pretrain_iters": 5, "batch_source": 16,
                  "batch_target": 16, "teacher_mode": "pi", "dropout_rate": 0.3}}))
    assert cli.main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
    shared = sorted(sorted(sites) for sites in made.values() if len(sites) > 1)
    assert not shared, f"{len(shared)} start states made from two call sites: {shared}"
    assert {"data.py:make_multimode_domains", "data.py:batch_indices",
            "network.py:init_network", "trainer.py:_DropoutPlan.uniforms",
            "evaluate.py:snapshot", "evaluate.py:_lloyd"} <= set().union(*made.values())
