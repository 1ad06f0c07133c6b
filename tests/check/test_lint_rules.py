"""Unit tests for every lint rule: positive hit + allowlist pragma."""

import pytest

from repro.check.lint import lint_source
from repro.check.rules import ALL_RULES, RULES_BY_ID, rule_catalog

SIM_MODULE = "repro.sim.core"


def ids_of(violations):
    return [v.rule_id for v in violations]


def lint(source, module=SIM_MODULE):
    return lint_source(source, module=module)


# -- registry ------------------------------------------------------------

def test_catalog_has_at_least_eight_rules():
    assert len(ALL_RULES) >= 8
    assert len({r.rule_id for r in ALL_RULES}) == len(ALL_RULES)


def test_catalog_entries_are_complete():
    for entry in rule_catalog():
        assert entry["id"]
        assert entry["title"]
        assert entry["rationale"]


# -- unseeded-rng --------------------------------------------------------

def test_unseeded_default_rng_flagged():
    out = lint("import numpy as np\nrng = np.random.default_rng()\n")
    assert "unseeded-rng" in ids_of(out)


def test_seeded_default_rng_clean():
    out = lint("import numpy as np\nrng = np.random.default_rng(42)\n")
    assert "unseeded-rng" not in ids_of(out)


def test_legacy_numpy_global_flagged():
    out = lint("import numpy as np\nx = np.random.rand(3)\n")
    assert "unseeded-rng" in ids_of(out)


def test_stdlib_random_module_flagged():
    out = lint("import random\nx = random.random()\n")
    assert "unseeded-rng" in ids_of(out)


def test_local_random_instance_clean():
    out = lint("import random\nr = random.Random(7)\nx = r.random()\n")
    assert "unseeded-rng" not in ids_of(out)


def test_unseeded_rng_out_of_scope_module_clean():
    out = lint("import numpy as np\nrng = np.random.default_rng()\n",
               module="repro.experiments.fig8")
    assert "unseeded-rng" not in ids_of(out)


def test_unseeded_rng_pragma():
    out = lint("import numpy as np\n"
               "rng = np.random.default_rng()  "
               "# repro: allow[unseeded-rng]\n")
    assert "unseeded-rng" not in ids_of(out)


# -- wall-clock ----------------------------------------------------------

def test_time_time_flagged():
    out = lint("import time\nt = time.time()\n")
    assert "wall-clock" in ids_of(out)


def test_perf_counter_flagged():
    out = lint("import time\nt = time.perf_counter()\n")
    assert "wall-clock" in ids_of(out)


def test_datetime_now_flagged():
    out = lint("from datetime import datetime\nt = datetime.now()\n")
    assert "wall-clock" in ids_of(out)


def test_env_now_clean():
    out = lint("def f(env):\n    return env.now\n")
    assert "wall-clock" not in ids_of(out)


def test_wall_clock_pragma_on_previous_line():
    out = lint("import time\n"
               "# repro: allow[wall-clock]\n"
               "t = time.time()\n")
    assert "wall-clock" not in ids_of(out)


# -- duration-clock ------------------------------------------------------

def test_time_time_outside_sim_flagged():
    out = lint("import time\nt0 = time.time()\n",
               module="repro.experiments.ablations")
    assert "duration-clock" in ids_of(out)


def test_time_ns_outside_sim_flagged():
    out = lint("import time\nt0 = time.time_ns()\n",
               module="tools.bench_retrieval")
    assert "duration-clock" in ids_of(out)


def test_perf_counter_outside_sim_clean():
    out = lint("import time\nt0 = time.perf_counter()\n",
               module="repro.experiments.ablations")
    assert "duration-clock" not in ids_of(out)


def test_duration_clock_fires_alongside_wall_clock_in_sim():
    # inside sim-critical packages both rules own the line: a
    # deliberate allow[wall-clock] stamp must not silently license
    # the wrong clock for a duration as well
    out = lint("import time\nt = time.time()\n")
    assert ids_of(out).count("wall-clock") == 1
    assert ids_of(out).count("duration-clock") == 1


def test_duration_clock_pragma():
    out = lint("import time\n"
               "stamp = time.time()  # repro: allow[duration-clock]\n",
               module="repro.obs.export")
    assert "duration-clock" not in ids_of(out)


# -- global-rng-seed -----------------------------------------------------

def test_numpy_global_seed_flagged_everywhere():
    out = lint("import numpy as np\nnp.random.seed(0)\n",
               module="repro.experiments.fig8")
    assert "global-rng-seed" in ids_of(out)


def test_random_seed_flagged():
    out = lint("import random\nrandom.seed(0)\n")
    assert "global-rng-seed" in ids_of(out)


def test_global_seed_pragma():
    out = lint("import random\n"
               "random.seed(0)  # repro: allow[global-rng-seed]\n")
    assert "global-rng-seed" not in ids_of(out)


# -- seed-default-none ---------------------------------------------------

def test_seed_none_default_flagged():
    out = lint("def make(seed=None):\n    return seed\n")
    assert "seed-default-none" in ids_of(out)


def test_rng_none_kwonly_default_flagged():
    out = lint("def make(*, rng=None):\n    return rng\n")
    assert "seed-default-none" in ids_of(out)


def test_seed_int_default_clean():
    out = lint("def make(seed=0):\n    return seed\n")
    assert "seed-default-none" not in ids_of(out)


def test_seed_default_pragma():
    out = lint("def make(seed=None):  "
               "# repro: allow[seed-default-none]\n"
               "    return seed\n")
    assert "seed-default-none" not in ids_of(out)


# -- set-iteration -------------------------------------------------------

def test_for_over_set_call_flagged():
    out = lint("for x in set([3, 1, 2]):\n    print(x)\n")
    assert "set-iteration" in ids_of(out)


def test_for_over_set_literal_flagged():
    out = lint("for x in {3, 1, 2}:\n    print(x)\n")
    assert "set-iteration" in ids_of(out)


def test_comprehension_over_set_flagged():
    out = lint("xs = [x for x in set([1, 2])]\n")
    assert "set-iteration" in ids_of(out)


def test_list_of_set_flagged():
    out = lint("xs = list(set([1, 2]))\n")
    assert "set-iteration" in ids_of(out)


def test_sorted_set_clean():
    out = lint("for x in sorted(set([3, 1, 2])):\n    print(x)\n")
    assert "set-iteration" not in ids_of(out)


def test_membership_test_clean():
    out = lint("s = set([1, 2])\nok = 1 in s\n")
    assert "set-iteration" not in ids_of(out)


def test_set_comp_from_set_clean():
    out = lint("ys = {x + 1 for x in set([1, 2])}\n")
    assert "set-iteration" not in ids_of(out)


def test_set_iteration_pragma():
    out = lint("for x in {1, 2}:  # repro: allow[set-iteration]\n"
               "    print(x)\n")
    assert "set-iteration" not in ids_of(out)


# -- builtin-hash --------------------------------------------------------

def test_builtin_hash_flagged():
    out = lint("key = hash('device-3')\n")
    assert "builtin-hash" in ids_of(out)


def test_hashlib_clean():
    out = lint("import hashlib\n"
               "key = hashlib.sha256(b'device-3').hexdigest()\n")
    assert "builtin-hash" not in ids_of(out)


def test_builtin_id_flagged():
    out = lint("def key(o):\n    return id(o)\n")
    assert "builtin-hash" in ids_of(out)
    (v,) = [v for v in out if v.rule_id == "builtin-hash"]
    assert v.line == 2
    assert "id()" in v.message


def test_builtin_hash_pragma():
    out = lint("key = hash('x')  # repro: allow[builtin-hash]\n")
    assert "builtin-hash" not in ids_of(out)


# -- magic-latency -------------------------------------------------------

def test_inline_read_latency_flagged():
    out = lint("guarantee = 3 * 0.132507\n",
               module="repro.experiments.table3")
    assert "magic-latency" in ids_of(out)


def test_inline_transfer_latency_flagged():
    out = lint("t = 0.107507\n", module="repro.core.qos")
    assert "magic-latency" in ids_of(out)


def test_params_module_exempt():
    out = lint("page_read_ms = 0.132507\n", module="repro.flash.params")
    assert "magic-latency" not in ids_of(out)


def test_other_floats_clean():
    out = lint("x = 0.5\ny = 1.25\n")
    assert "magic-latency" not in ids_of(out)


def test_magic_latency_pragma():
    out = lint("g = 0.132507  # repro: allow[magic-latency]\n")
    assert "magic-latency" not in ids_of(out)


# -- mutable-default -----------------------------------------------------

def test_list_default_flagged():
    out = lint("def f(xs=[]):\n    return xs\n")
    assert "mutable-default" in ids_of(out)


def test_dict_call_default_flagged():
    out = lint("def f(cfg=dict()):\n    return cfg\n")
    assert "mutable-default" in ids_of(out)


def test_none_default_clean():
    out = lint("def f(xs=None):\n    return xs or []\n")
    assert "mutable-default" not in ids_of(out)


def test_tuple_default_clean():
    out = lint("def f(xs=(1, 2)):\n    return xs\n")
    assert "mutable-default" not in ids_of(out)


def test_mutable_default_pragma():
    out = lint("def f(xs=[]):  # repro: allow[mutable-default]\n"
               "    return xs\n")
    assert "mutable-default" not in ids_of(out)


# -- bare-except ---------------------------------------------------------

def test_bare_except_flagged():
    out = lint("try:\n    x = 1\nexcept:\n    pass\n")
    assert "bare-except" in ids_of(out)


def test_typed_except_clean():
    out = lint("try:\n    x = 1\nexcept ValueError:\n    pass\n")
    assert "bare-except" not in ids_of(out)


def test_bare_except_pragma():
    out = lint("try:\n    x = 1\n"
               "except:  # repro: allow[bare-except]\n    pass\n")
    assert "bare-except" not in ids_of(out)


# -- pragma mechanics ----------------------------------------------------

def test_wildcard_pragma_waives_everything():
    out = lint("import time\n"
               "t = time.time()  # repro: allow[*]\n")
    assert out == []


def test_multi_id_pragma():
    out = lint("def f(seed=None, xs=[]):  "
               "# repro: allow[seed-default-none,mutable-default]\n"
               "    return seed, xs\n")
    assert out == []


def test_pragma_in_string_literal_does_not_waive():
    out = lint('msg = "# repro: allow[bare-except]"\n'
               "try:\n    x = 1\nexcept:\n    pass\n")
    assert "bare-except" in ids_of(out)


def test_pragma_only_covers_its_line():
    out = lint("# repro: allow[wall-clock]\n"
               "import time\n"
               "\n"
               "t = time.time()\n")
    assert "wall-clock" in ids_of(out)


def test_violations_carry_location():
    out = lint("import time\nt = time.time()\n")
    v = [v for v in out if v.rule_id == "wall-clock"][0]
    assert v.line == 2
    assert "time.time" in v.message
    assert v.to_dict()["rule"] == "wall-clock"


def test_unknown_rule_lookup():
    assert "wall-clock" in RULES_BY_ID
    with pytest.raises(KeyError):
        RULES_BY_ID["no-such-rule"]
