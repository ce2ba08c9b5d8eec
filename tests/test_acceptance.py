"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS|FAIL`` line
(visible with ``pytest -s``). Expected values come from the per-version
MANIFEST.json files, which were computed by hand before implementation,
or from independent oracles defined here.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from aometrics import Weight, default_weights, measure_version, parse_source
from aometrics.report import render_table, write_json, write_log
from helpers import (
    MINI_UAS,
    MINI_UAS_ORDER,
    TEST_FIXTURES,
    brute_force_method_counts,
    measure_dir,
    parse_version_dir,
)

W = default_weights()


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def load_manifest(version_id: str) -> dict:
    return json.loads((MINI_UAS / version_id / "MANIFEST.json").read_text(encoding="utf-8"))


def test_criterion_1_fixture_oracle():
    with criterion(1, "fixture oracle"):
        for vid in MINI_UAS_ORDER:
            manifest = load_manifest(vid)["expected"]
            started = time.perf_counter()
            m = measure_dir(MINI_UAS / vid)
            elapsed = time.perf_counter() - started

            assert m.version_id == vid
            assert m.wpa.render() == manifest["wpa"], vid
            assert m.waa.render() == manifest["waa"], vid
            assert m.wjp.render() == manifest["wjp"], vid
            assert m.wmca == manifest["wmca"], vid
            nac = manifest["nac"]
            assert m.class_attribute_count == nac["num"], vid
            assert m.class_count == nac["den"], vid
            assert m.nac_rendered() == nac["rendered"], vid

            got_aspects = [
                {"name": a.name, "wpa": a.wpa.render(), "waa": a.waa.render(),
                 "wjp": a.wjp.render(), "wmca": a.wmca}
                for a in m.per_aspect
            ]
            assert got_aspects == manifest["per_aspect"], vid
            got_classes = [
                {"name": c.name, "wmca": c.wmca, "attributes": c.attribute_count,
                 "wjp": c.wjp.render()}
                for c in m.per_class
            ]
            assert got_classes == manifest["per_class"], vid
            assert elapsed < 1.0, f"{vid} took {elapsed:.3f}s"


def test_criterion_2_zero_law_java_only():
    with criterion(2, "zero law for Java-only versions"):
        rng = random.Random(20260810)
        for case in range(120):
            units = []
            for i in range(rng.randint(1, 4)):
                members = []
                for j in range(rng.randint(0, 4)):
                    members.append(f"int f{j}() {{ return {j}; }}")
                for j in range(rng.randint(0, 5)):
                    members.append(f"private int a{j};")
                rng.shuffle(members)
                body = " ".join(members)
                units.append(parse_source(f"public class C{i} {{ {body} }}", f"C{i}.java"))
            m = measure_version(f"case{case}", units, W)
            assert m.aspect_free
            assert m.wpa.units == 0 and m.waa.units == 0 and m.wjp.units == 0
            row = render_table([m]).splitlines()[1]
            assert row.split()[-3:] == ["NA", "NA", "NA"]


def test_criterion_3_nac_anchor():
    with criterion(3, "NAC anchor 9.583"):
        m = measure_dir(MINI_UAS / "J1.0")
        assert m.class_attribute_count == 115
        assert m.class_count == 12
        assert m.nac_rendered() == "9.583"


def test_criterion_4_additivity():
    with criterion(4, "additivity over partitions"):
        pooled = []
        for vid in MINI_UAS_ORDER:
            _, units = parse_version_dir(MINI_UAS / vid)
            pooled.extend(units)
        whole = measure_version("all", pooled, W)
        rng = random.Random(404)
        for _ in range(200):
            mask = [rng.random() < 0.5 for _ in pooled]
            left = [u for u, keep in zip(pooled, mask) if keep]
            right = [u for u, keep in zip(pooled, mask) if not keep]
            a = measure_version("a", left, W)
            b = measure_version("b", right, W)
            assert a.wpa + b.wpa == whole.wpa
            assert a.waa + b.waa == whole.waa
            assert a.wjp + b.wjp == whole.wjp
            assert a.wmca + b.wmca == whole.wmca
            assert a.class_attribute_count + b.class_attribute_count == whole.class_attribute_count
            assert a.class_count + b.class_count == whole.class_count


def test_criterion_5_permutation_invariance():
    with criterion(5, "permutation invariance"):
        version, units = parse_version_dir(MINI_UAS / "AJ1.3")
        base = measure_version(version, units, W)
        base_json = write_json(base)
        base_log = write_log(units, base)
        base_table = render_table([base])
        rng = random.Random(55)
        for _ in range(50):
            shuffled = units[:]
            rng.shuffle(shuffled)
            m = measure_version(version, shuffled, W)
            assert write_json(m) == base_json
            assert write_log(shuffled, m) == base_log
            assert render_table([m]) == base_table


def test_criterion_6_counting_oracle():
    with criterion(6, "independent method-count oracle"):
        for vid in MINI_UAS_ORDER:
            manifest = load_manifest(vid)
            total_from_files = 0
            for rel, counts in manifest["files"].items():
                text = (MINI_UAS / vid / rel).read_text(encoding="utf-8")
                methods, ctors = brute_force_method_counts(text)
                assert methods == counts["methods"], f"{vid}/{rel}"
                assert ctors == counts["constructors"], f"{vid}/{rel}"
                total_from_files += methods
            m = measure_dir(MINI_UAS / vid)
            assert m.wmca == total_from_files, vid


def test_criterion_7_exact_arithmetic():
    with criterion(7, "exact fixed-point arithmetic"):
        total = Weight(0, 10)
        for _ in range(1000):
            total = total + Weight(1, 10)
        assert total.render() == "100.0"


def test_criterion_8_comment_string_immunity():
    with criterion(8, "comment/string immunity"):
        plain = measure_dir(TEST_FIXTURES / "immunity" / "plain" / "V")
        noisy = measure_dir(TEST_FIXTURES / "immunity" / "commented" / "V")
        assert write_json(plain) == write_json(noisy)


def test_criterion_9_waa_monotonicity(tmp_path: Path):
    with criterion(9, "before() advice adds exactly 0.1 WAA"):
        probes = 0
        for vid in MINI_UAS_ORDER:
            version_dir = MINI_UAS / vid
            aj_files = sorted(version_dir.rglob("*.aj"))
            if not aj_files:
                continue
            version, units = parse_version_dir(version_dir)
            base = measure_version(version, units, W)
            for aj in aj_files:
                text = aj.read_text(encoding="utf-8")
                cut = text.rindex("}")
                patched_text = text[:cut] + "    before(): monotonicityProbe() {\n    }\n" + text[cut:]
                patched_units = []
                for path, unit in zip(version.files, units):
                    if path == str(aj):
                        patched_units.append(parse_source(patched_text, path))
                    else:
                        patched_units.append(unit)
                patched = measure_version(version, patched_units, W)
                assert patched.waa.units - base.waa.units == 1, aj
                assert patched.wpa == base.wpa, aj
                assert patched.wjp == base.wjp, aj
                assert patched.wmca == base.wmca, aj
                assert patched.class_attribute_count == base.class_attribute_count, aj
                assert patched.class_count == base.class_count, aj
                probes += 1
        assert probes >= 7  # every distinct fixture aspect file exercised
