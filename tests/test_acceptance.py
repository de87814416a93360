"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import cmath
import math

import numpy as np

from fixtures import (
    catenoid_extension_fixture,
    catenoid_oracle,
    degenerate_lightlike_fixture,
    lightlike_fixture,
    random_polynomial_data,
    spacelike_fixture,
    timelike_fixture,
)
from maxsurf.cli import CATENOID_CONFIG, main
from maxsurf.expr import evaluate, parse
from maxsurf.extension import (
    CircleOrLine,
    HypothesisViolationError,
    _spacelike_locus,
    extend,
    measure_contact,
    reflect_g,
)
from maxsurf.minkowski import LVector
from maxsurf.verify import (
    catenoid_data,
    eq_zero_residual,
    full_diagnostics,
    harmonicity_order,
)
from maxsurf.weierstrass import (
    Domain,
    DomainKind,
    WeierstrassData,
    evaluate_surface,
    phi,
)


def report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def _domain_samples(domain, n, rng):
    pts = []
    while len(pts) < n:
        z = complex(
            rng.uniform(-domain.radius, domain.radius),
            rng.uniform(-domain.radius, domain.radius),
        )
        if domain.contains(z) and all(abs(z - p) > 0.02 for p in domain.punctures):
            pts.append(z)
    return pts


def test_criterion_1_weierstrass_identity_suite():
    rng = np.random.default_rng(101)
    datasets = [
        catenoid_data(),
        spacelike_fixture()[0],
        timelike_fixture()[0],
        lightlike_fixture()[0],
        random_polynomial_data(rng),
    ]
    worst21 = 0.0
    min22 = math.inf
    for data in datasets:
        for z in _domain_samples(data.domain, 10_000, rng):
            p = phi(data, z)
            worst21 = max(worst21, eq_zero_residual(p))
            lam = abs(p.phi1) ** 2 + abs(p.phi2) ** 2 - abs(p.phi3) ** 2
            min22 = min(min22, lam)
    report(
        1,
        f"identity suite on 5x10^4 points (residual {worst21:.2e}, min metric {min22:.2e})",
        worst21 < 1e-12 and min22 > 0,
    )


def test_criterion_2_catenoid_round_trip():
    data = catenoid_data()
    worst = 0.0
    for u in np.linspace(-1.5, -0.1, 41):
        for v in np.linspace(-math.pi, math.pi, 41):
            z = cmath.exp(complex(u, v))
            X = evaluate_surface(data, z)
            ox = catenoid_oracle(z)
            worst = max(worst, max(abs(a - b) for a, b in zip(X.as_tuple(), ox)))
    report(2, f"catenoid round-trip on 41x41 grid (max error {worst:.2e})", worst <= 1e-8)


def test_criterion_3_spacelike_catenoid_slab():
    b, a = -0.7, -1.2
    data, plane = catenoid_extension_fixture(b=b)
    ext = extend(data, plane)
    worst_plane = 0.0
    for k in range(20):
        zk = math.exp(a) * cmath.exp(1j * (2 * math.pi * k / 20 + 0.03))
        Xm = ext.evaluate(zk)
        Xp = ext.evaluate(ext.reflect(zk))
        worst_plane = max(
            worst_plane, abs(Xm.x3 - a), abs(Xp.x3 - (2 * b - a)), abs(Xm.x3 + Xp.x3 - 2 * b)
        )
    gaps = ext.matching.gaps
    worst_match = max(gaps["g"], gaps["f"], gaps["dg"], gaps["df"])
    report(
        3,
        f"spacelike slab reflection x3=a -> x3=2b-a (plane dist {worst_plane:.2e}, "
        f"C1 gap {worst_match:.2e})",
        worst_plane <= 1e-7 and worst_match <= 1e-7,
    )


def test_criterion_4_timelike_self_symmetric():
    data, _ = timelike_fixture()
    lam = 1.0  # c = 1/lam: the locus c |w|^2 + 2 Im w - c = 0
    g_minus = reflect_g(data.g, CircleOrLine(1 / lam, 1j, -1 / lam), CircleOrLine(0.0, 1j, 0.0))
    rng = np.random.default_rng(104)
    worst = 0.0
    pts = 0
    while pts < 1000:
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.0))
        if abs(z) >= 0.7:
            continue
        worst = max(worst, abs(evaluate(g_minus, z) - evaluate(data.g, z)))
        pts += 1
    locus_res = 0.0
    for u in np.linspace(-0.6, 0.6, 50):
        w = evaluate(data.g, u)
        locus_res = max(locus_res, abs(w.real**2 + (w.imag + lam) ** 2 - (1 + lam * lam)))
    report(
        4,
        f"timelike self-symmetry (pointwise {worst:.2e}, locus {locus_res:.2e})",
        worst <= 1e-10 and locus_res <= 1e-10,
    )


def test_criterion_5_lightlike_self_symmetric_and_identity():
    data, _ = lightlike_fixture()
    lam = -2.0  # the locus lam |w|^2 + 2 Re w - lam - 2 = 0
    g_minus = reflect_g(data.g, CircleOrLine(lam, 1 + 0j, -lam - 2), CircleOrLine(0.0, 1j, 0.0))
    rng = np.random.default_rng(105)
    worst = 0.0
    pts = 0
    while pts < 1000:
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.0))
        if abs(z) >= 0.7:
            continue
        worst = max(worst, abs(evaluate(g_minus, z) - evaluate(data.g, z)))
        pts += 1
    poly = random_polynomial_data(rng)
    worst_id = 0.0
    for z in _domain_samples(poly.domain, 10_000, rng):
        p = phi(poly, z)
        fv = evaluate(poly.f, z)
        gv = evaluate(poly.g, z)
        lhs = 0.5 * fv * (1 - gv) ** 2
        rhs = p.phi1 - p.phi3
        worst_id = max(worst_id, abs(lhs - rhs) / (1 + abs(rhs)))
    report(
        5,
        f"lightlike self-symmetry (pointwise {worst:.2e}) and "
        f"f(1-g)^2/2 = phi1-phi3 on 10^4 points ({worst_id:.2e})",
        worst <= 1e-10 and worst_id <= 1e-12,
    )


def test_criterion_6_involutions():
    seg, circle = CircleOrLine(0.0, 1j, 0.0), CircleOrLine(1.0, 0j, -math.exp(-0.7) ** 2)  # the arcs
    rng = np.random.default_rng(106)
    cases = {  # each fixture's locus: |w| = 1/2, the timelike c = 1, the lightlike lam = -2, |w| = e^-0.7
        "spacelike": (
            spacelike_fixture()[0].g, lambda g: reflect_g(g, CircleOrLine(1.0, 0j, -0.25), seg)
        ),
        "timelike": (
            timelike_fixture()[0].g, lambda g: reflect_g(g, CircleOrLine(1.0, 1j, -1.0), seg)
        ),
        "lightlike": (
            lightlike_fixture()[0].g, lambda g: reflect_g(g, CircleOrLine(-2.0, 1 + 0j, 0.0), seg)
        ),
        "circular": (
            catenoid_data().g,
            lambda g: reflect_g(g, circle, circle),
        ),
    }
    worst = 0.0
    for name, (g, refl) in cases.items():
        g2 = refl(refl(g))
        pts = 0
        while pts < 1000:
            if name == "circular":
                z = cmath.rect(rng.uniform(0.55, 0.95), rng.uniform(-math.pi, math.pi))
            else:
                z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
                if abs(z) >= 0.65:
                    continue
            worst = max(worst, abs(evaluate(g2, z) - evaluate(g, z)))
            pts += 1
    report(6, f"double reflection is the identity, 10^3 points/case ({worst:.2e})", worst <= 1e-10)


def test_criterion_7_harmonicity_of_extensions():
    hs = (1e-3, 5e-4, 2.5e-4)
    surfaces = []
    data, plane = catenoid_extension_fixture()
    surfaces.append((extend(data, plane), [0.75 + 0.1j, 0.6 - 0.25j], [0.35 + 0.1j, 0.3 - 0.15j]))
    data2, plane2 = timelike_fixture()
    surfaces.append((extend(data2, plane2), [0.2 + 0.25j, -0.15 + 0.3j], [0.2 - 0.25j, -0.15 - 0.3j]))
    orders = []
    for ext, plus_pts, minus_pts in surfaces:
        for z in plus_pts:
            o, _ = harmonicity_order(ext.original.field, z, hs)
            if o is not None:
                orders.append(o)
        for z in minus_pts:
            o, _ = harmonicity_order(ext.minus.field, z, hs)
            if o is not None:
                orders.append(o)
    ok = bool(orders) and all(o >= 1.8 for o in orders)
    report(7, f"extended surfaces harmonic, fitted orders min {min(orders):.2f}", ok)


def _refusal(build, *args) -> str:
    """The message of the HypothesisViolationError build(*args) raises, "" when it raises none."""
    try:
        build(*args)
    except HypothesisViolationError as exc:
        return str(exc)
    return ""


def test_criterion_8_obstruction_checks():
    ok1 = "impossible against a spacelike plane" in _refusal(_spacelike_locus, 0.004, 1, [0.5 + 0j])
    ok2 = "X_u ^ X_v = 0" in _refusal(measure_contact, *degenerate_lightlike_fixture())
    report(8, "obstructions: impossible spacelike contact and degenerate lightlike contact", ok1 and ok2)


def test_criterion_9_pole_zero_pairing():
    dom = Domain(DomainKind.DISK, radius=0.8, punctures=(0j,))
    accept = WeierstrassData(
        parse("z^2"), parse("1/z"), dom, 0.4, LVector(0, 0, 0), ((0j, 1),)
    )
    reject = WeierstrassData(
        parse("z"), parse("1/z"), dom, 0.4, LVector(0, 0, 0), ((0j, 1),)
    )
    rep_a = full_diagnostics(accept)["pole_zero_orders"]
    rep_r = full_diagnostics(reject)["pole_zero_orders"]
    report(
        9,
        "order-1 pole of g pairs with a double zero of f (accept z^2, reject z)",
        rep_a.passed and not rep_r.passed,
    )


def test_criterion_10_deterministic_cli(tmp_path, capsys):
    cfg = tmp_path / "catenoid.cfg"
    cfg.write_text(CATENOID_CONFIG)
    assert main(["check", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert main(["check", str(cfg)]) == 0
    second = capsys.readouterr().out
    obj1 = tmp_path / "m1.obj"
    obj2 = tmp_path / "m2.obj"
    assert main(["mesh", str(cfg), "--grid", "7x9", "-o", str(obj1)]) == 0
    assert main(["mesh", str(cfg), "--grid", "7x9", "-o", str(obj2)]) == 0
    capsys.readouterr()
    same_check = first == second
    same_mesh = obj1.read_bytes() == obj2.read_bytes() and (
        (tmp_path / "m1.obj.attrs.json").read_bytes()
        == (tmp_path / "m2.obj.attrs.json").read_bytes()
    )
    report(10, "cmd_check and cmd_mesh byte-identical across runs", same_check and same_mesh)
