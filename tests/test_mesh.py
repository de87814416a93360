"""build_mesh: vertices accumulated along a spanning forest of grid edges.

Every vertex must agree with a direct evaluate_surface call within 10*tol,
and the masking must be exactly that of meshing vertex by vertex.  An
extended surface is meshed on both sides of its arc, each vertex with the
data of its side.
"""

import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import bench_configs, quadrature_constants, spacelike_fixture
from maxsurf import __version__, cli, weierstrass
from maxsurf.cli import (
    CATENOID_CONFIG,
    SurfaceConfig,
    SurfaceMesh,
    _grid_forest,
    _mesh_parameters,
    build_mesh,
    main,
    write_sidecar,
)
from maxsurf.expr import EvalError, parse
from maxsurf.extension import extend
from maxsurf.minkowski import LVector
from maxsurf.verify import catenoid_data, catenoid_reference
from maxsurf.weierstrass import (
    DegenerateMetricError,
    Domain,
    DomainKind,
    QuadratureConfig,
    ToleranceError,
    WeierstrassData,
    conformal_factor,
    evaluate_surface,
    gauss_map,
)


def _grid(surface, nu, nv, mesh_range=None):
    polar, (a0, a1, b0, b1) = _mesh_parameters(surface, mesh_range)
    pts = []
    for i in range(nu):
        a = a0 + (a1 - a0) * i / (nu - 1)
        for j in range(nv):
            b = b0 + (b1 - b0) * j / (nv - 1)
            pts.append(complex(a * math.cos(b), a * math.sin(b)) if polar else complex(a, b))
    return pts


def _entire(kind, z0=None, **domain):
    """f = exp(z/2), g = z/2: entire, so X has no periods on any domain."""
    dom = Domain(kind, **domain)
    if z0 is None:
        z0 = 0.6j if kind in (DomainKind.HALF_DISK, DomainKind.HALF_ANNULUS) else 0.6
    return WeierstrassData(parse("exp(z/2)"), parse("z/2"), dom, z0, LVector(0.1, -0.2, 0.3))


CASES = {
    "catenoid-17": (catenoid_data(), 17, 17, None),
    "catenoid-33": (catenoid_data(), 33, 33, None),
    "spacelike-half-disk": (spacelike_fixture()[0], 9, 13, None),
    "annulus": (_entire(DomainKind.ANNULUS, radius=1.0, inner_radius=0.3), 9, 25, None),
    "disk-window-outside": (
        WeierstrassData(parse("1 + z"), parse("z/3"), Domain(DomainKind.DISK), 0.2, LVector(0, 0, 0)),
        14,
        11,
        (-1.3, 0.9, -0.8, 1.2),
    ),
    # a strip below the inner circle: two components, one root each
    "half-annulus-two-roots": (
        _entire(DomainKind.HALF_ANNULUS, radius=1.0, inner_radius=0.3),
        19,
        5,
        (-0.9, 0.9, 0.05, 0.25),
    ),
    # z0 is 0.036 from the extra puncture, so the root's path from it detours, as do forest edges
    "punctured-disk-detours": (
        _entire(DomainKind.PUNCTURED_DISK, z0=0.33 + 0.2j, radius=1.0, punctures=(0.31 + 0.17j,)),
        13,
        21,
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_tree_mesh_matches_per_vertex_evaluation(name):
    data, nu, nv, window = CASES[name]
    q = QuadratureConfig(tol=1e-10)
    mask_eps = 1e-8
    mesh = build_mesh(data, nu, nv, mask_eps, q, window)
    pts = _grid(data, nu, nv, window)
    valid = [data.domain.contains(z, closed=True) for z in pts]
    assert len(mesh.vertices) == len(pts)
    for z, ok, X in zip(pts, valid, mesh.vertices.tolist()):
        if ok:
            ref = evaluate_surface(data, z, q)
            assert max(abs(a - b) for a, b in zip(X, ref.as_tuple())) <= 10 * q.tol
        else:
            assert X == [0.0, 0.0, 0.0]
    lam = [conformal_factor(data, z) if ok else 0.0 for z, ok in zip(pts, valid)]
    masked, triangles = [], []
    for i in range(nu - 1):
        for j in range(nv - 1):
            k = i * nv + j
            corners = (k, k + 1, k + nv, k + nv + 1)
            if all(valid[c] and lam[c] >= mask_eps for c in corners):
                triangles += [(k, k + 1, k + nv + 1), (k, k + nv + 1, k + nv)]
            else:
                masked.append((i, j))
    assert list(map(tuple, mesh.masked_cells.tolist())) == masked
    assert list(map(tuple, mesh.triangles.tolist())) == triangles
    if window is not None:
        assert not all(valid)


def test_strip_below_the_inner_circle_is_a_forest():
    data, nu, nv, window = CASES["half-annulus-two-roots"]
    pts = _grid(data, nu, nv, window)
    valid = [data.domain.contains(z, closed=True) for z in pts]
    order, parents = _grid_forest(np.array(pts), np.array(valid), nv, data.z0)
    assert sorted(order) == [k for k, ok in enumerate(valid) if ok]
    assert parents.count(-1) == 2
    root = []
    for pos, p in enumerate(parents):
        if p >= 0:
            assert p < pos
            assert abs(order[p] - order[pos]) in (1, nv)  # one grid edge
        root.append(pos if p < 0 else root[p])
    for r in set(root):
        members = [order[pos] for pos, s in enumerate(root) if s == r]
        assert order[r] == min(members, key=lambda k: abs(pts[k] - data.z0))


def _reference_forest(points, valid, nv, z0):
    """The forest as found with bound tests on the unpadded grid, the oracle of _grid_forest."""
    inside = np.flatnonzero(valid)
    near = np.hypot(points.real[inside] - z0.real, points.imag[inside] - z0.imag)
    n, valid = len(points), valid.tolist()
    seen = [False] * n
    order, parents = [], []
    for root in inside[np.argsort(near, kind="stable")].tolist():
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        parents.append(-1)
        head = len(order) - 1
        while head < len(order):
            k = order[head]
            j = k % nv
            for m, ok in ((k - 1, j > 0), (k + 1, j < nv - 1), (k - nv, k >= nv), (k + nv, k + nv < n)):
                if ok and valid[m] and not seen[m]:
                    seen[m] = True
                    order.append(m)
                    parents.append(head)
            head += 1
    return order, parents


@st.composite
def _forest_inputs(draw):
    """A grid of integer points, a mask with empty rows, and z0 on a point, halfway between two or outside."""
    nu, nv = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    valid = np.array(draw(st.lists(st.booleans(), min_size=nu * nv, max_size=nu * nv))).reshape(nu, nv)
    valid[draw(st.lists(st.integers(0, nu - 1), max_size=3)), :] = False
    i, j = draw(st.integers(0, nu - 1)), draw(st.integers(0, nv - 1))
    z0 = draw(st.sampled_from([complex(i, j), complex(i + 0.5, j), complex(i, j + 0.5), complex(-3.0, nv + 2.5)]))
    points = (np.arange(nu)[:, None] + 1j * np.arange(nv)).ravel()
    return points, valid.ravel(), nv, z0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_forest_inputs())
def test_padded_forest_visits_and_parents_as_the_bound_tested_one(inputs):
    order, parents = _grid_forest(*inputs)
    want_order, want_parents = _reference_forest(*inputs)
    assert order.tolist() == want_order and parents == want_parents


def test_detour_mesh_detours_a_root_path_and_forest_edges(monkeypatch):
    data, nu, nv, window = CASES["punctured-disk-detours"]
    built, build_path = [], weierstrass._build_path

    def recording(a, b, punctures):
        built.append(build_path(a, b, punctures))
        return built[-1]

    monkeypatch.setattr(weierstrass, "_build_path", recording)
    build_mesh(data, nu, nv, mesh_range=window)
    detours = [path for path in built if len(path) > 2]
    assert len(detours) > 0
    assert any(path[0] == data.z0 for path in detours)
    assert any(path[0] != data.z0 for path in detours)


# GK15 panels of the catenoid mesh: 33x33 has 1,088 grid edges, 33 of them halved once; 65x65 has 4,224, none halved
@pytest.mark.parametrize("n, expected", [(33, 1154), (65, 4224)], ids=["33x33", "65x65"])
def test_catenoid_mesh_costs_at_most_two_panels_per_vertex(monkeypatch, n, expected):
    # panels of the batched kernel; a scalar panel here can only come from an edge replayed by integrate_path
    panels = []
    batch, gk15 = weierstrass._gk15_panels, weierstrass._gk15

    def counted_batch(fg, a, b, side):
        panels.extend(a)
        return batch(fg, a, b, side)

    def counted(fn, a, b):
        panels.append(a)
        return gk15(fn, a, b)

    monkeypatch.setattr(weierstrass, "_gk15_panels", counted_batch)
    monkeypatch.setattr(weierstrass, "_gk15", counted)
    build_mesh(catenoid_data(), n, n)
    assert 0 < len(panels) <= 2 * n * n
    assert len(panels) == expected


# GK15 panels of the extended bench meshes at 33x33: one per edge, and on catenoid-b07 the edges the arc splits
@pytest.mark.parametrize("name, expected", [("catenoid-b07", 1187), ("spacelike", 1089), ("timelike", 1089),
                                            ("lightlike", 1089)])
def test_extended_mesh_panel_counts(monkeypatch, extended_configs, name, expected):
    panels, batch = [], weierstrass._gk15_panels
    monkeypatch.setattr(weierstrass, "_gk15_panels", lambda fg, a, b, side: panels.extend(a) or batch(fg, a, b, side))
    monkeypatch.setattr(weierstrass, "integrate_path", lambda *args: pytest.fail("an edge was replayed"))
    build_mesh(extended_configs[name][1], 33, 33)
    assert len(panels) == expected


@pytest.mark.parametrize("n", [65, 33])
def test_catenoid_meshes_are_never_replayed(monkeypatch, n):
    # an edge that fails in the batch is replayed through integrate_path
    calls = []
    scalar = weierstrass.integrate_path

    def counted(surface, points, q):
        calls.append(points)
        return scalar(surface, points, q)

    monkeypatch.setattr(weierstrass, "integrate_path", counted)
    build_mesh(catenoid_data(), n, n)
    assert calls == []


def test_a_mesh_grid_is_at_least_2x2():
    with pytest.raises(ValueError, match="grid must be at least 2x2"):
        build_mesh(catenoid_data(), 1, 5)


def test_tree_mesh_still_raises_tolerance_error():
    with pytest.raises(ToleranceError), quadrature_constants(max_depth=1):
        build_mesh(catenoid_data(), 17, 17, q=QuadratureConfig(tol=1e-14))


def test_cli_mesh_tolerance_error_exits_1(tmp_path, capsys):
    cfg = tmp_path / "catenoid.cfg"
    cfg.write_text(CATENOID_CONFIG)
    out = tmp_path / "cat.obj"
    with quadrature_constants(max_depth=1):
        assert main(["mesh", str(cfg), "--grid", "17x17", "--tol", "1e-14", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: quadrature did not converge")
    assert not out.exists()


# ---------------------------------------------------------------------------
# closed-form oracle: f = 1, g = z on the unit disk from z0 = 0

_POLY = WeierstrassData(parse("1"), parse("z"), Domain(DomainKind.DISK), 0j, LVector(0, 0, 0))


def _poly_closed_form(z: complex) -> tuple[float, float, float]:
    return ((z / 2 + z**3 / 6).real, (1j * (z / 2 - z**3 / 6)).real, (z * z / 2).real)


_edge = st.floats(min_value=-1.3, max_value=1.3)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(a=st.tuples(_edge, _edge), b=st.tuples(_edge, _edge), nu=st.integers(2, 9), nv=st.integers(2, 9))
def test_polynomial_mesh_matches_closed_form(a, b, nu, nv):
    window = (min(a), max(a), min(b), max(b))
    q = QuadratureConfig(tol=1e-10)
    mesh = build_mesh(_POLY, nu, nv, q=q, mesh_range=window)
    for z, X in zip(_grid(_POLY, nu, nv, window), mesh.vertices.tolist()):
        if _POLY.domain.contains(z, closed=True):
            assert max(abs(u - v) for u, v in zip(X, _poly_closed_form(z))) <= 10 * q.tol
        else:
            assert X == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# faults in the batched kernel, and the sidecar writer

_WINDOW = (-0.5, 0.5, -0.5, 0.5)  # a 9x9 grid on it has dyadic vertices and edge midpoints


def _pole_on_first_edge():
    """Data whose f has a pole exactly at the centre node of the forest's first edge."""
    probe = WeierstrassData(parse("1"), parse("z/3"), Domain(DomainKind.DISK), 0j, LVector(0, 0, 0))
    pts = _grid(probe, 9, 9, _WINDOW)
    order, _ = _grid_forest(np.array(pts), np.ones(len(pts), dtype=bool), 9, probe.z0)
    c = 0.5 * (pts[order[0]] + pts[order[1]])
    assert c == complex(0, -0.0625)
    return WeierstrassData(parse("1/(z+0.0625*i)"), parse("z/3"), Domain(DomainKind.DISK), 0j, LVector(0, 0, 0))


def test_node_on_a_pole_falls_back_to_the_scalar_panel(monkeypatch):
    reruns = []
    gk15 = weierstrass._gk15

    def counted(fn, a, b):
        reruns.append((a, b))
        return gk15(fn, a, b)

    monkeypatch.setattr(weierstrass, "_gk15", counted)
    with pytest.raises(EvalError) as exc:
        build_mesh(_pole_on_first_edge(), 9, 9, mesh_range=_WINDOW)
    assert str(exc.value) == "division by zero in '1/(z+0.0625*i)'"
    assert reruns == [(0j, complex(0, -0.125))]


def test_cli_mesh_pole_on_a_node_exits_2(tmp_path, capsys):
    cfg = tmp_path / "pole.cfg"
    cfg.write_text("f = 1/(z+0.0625*i)\ng = z/3\ndomain = disk\nz0 = 0\nmesh_range = -0.5,0.5,-0.5,0.5\n")
    out = tmp_path / "pole.obj"
    assert main(["mesh", str(cfg), "--grid", "9x9", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: division by zero in '1/(z+0.0625*i)'\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["catenoid-17", "disk-window-outside", "pole"])
def test_build_mesh_emits_no_runtime_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name == "pole":  # division by zero at a node, then the scalar rerun
            with pytest.raises(EvalError):
                build_mesh(_pole_on_first_edge(), 9, 9, mesh_range=_WINDOW)
            return
        data, nu, nv, window = CASES[name]
        build_mesh(data, nu, nv, mesh_range=window)


def _json_sidecar(mesh, sha):
    payload = {
        "format": "maxsurf-mesh-attributes/1",
        "config_sha256": sha,
        "note": "vertices are listed in OBJ order (1-based index = position + 1)",
        "vertices": [
            {"conformal_factor": lam, "gauss": N if not math.isnan(N[0]) else None}
            for N, lam in zip(mesh.gauss.tolist(), mesh.conformal.tolist())
        ],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _sidecar_mesh(name):
    if name == "invalid-vertices":
        data, nu, nv, window = CASES["disk-window-outside"]
        return build_mesh(data, nu, nv, mesh_range=window)
    if name == "degenerate-gauss":
        return build_mesh(catenoid_data(), 17, 17)
    if name == "2x2":
        return build_mesh(_POLY, 2, 2)
    if name == "infinity":  # far out on a disk of radius 1e100 the conformal factor overflows
        return build_mesh(replace(_POLY, domain=Domain(DomainKind.DISK, radius=1e100)), 5, 5)
    if name == "null-ends":  # the window's corners are outside the unit disk
        return build_mesh(_POLY, 7, 6, mesh_range=(-1.2, 1.2, -1.2, 1.2))
    if name == "blocks":
        return build_mesh(catenoid_data(), 65, 65)
    # non-finite factors, which json writes as NaN, -Infinity and Infinity
    gauss = np.array([[math.nan] * 3, [1.0, 2.0, 3.0], [math.nan] * 3, [math.nan] * 3])
    conformal = np.array([math.nan, 0.5, 0.0, -0.0] if name == "nan" else [-math.inf, math.inf, -0.0, 1e-300])
    return SurfaceMesh(np.zeros((4, 3)), gauss, conformal, np.empty((0, 3), int), np.array([[0, 0]]), (2, 2))


@pytest.mark.parametrize("name", ["invalid-vertices", "degenerate-gauss", "2x2", "nan", "infinity", "minus-infinity",
                                  "null-ends", "blocks"])
def test_sidecar_is_byte_identical_to_json_dumps(name, tmp_path):
    mesh = _sidecar_mesh(name)
    factors, nulls = mesh.conformal.tolist(), np.isnan(mesh.gauss).all(axis=1)
    if name == "invalid-vertices":
        assert 0.0 in factors and nulls.any()
    if name == "degenerate-gauss":  # |g| = 1 on the outer ring of the punctured disk
        assert any(null and lam != 0.0 for null, lam in zip(nulls, factors))
    if name in ("infinity", "minus-infinity"):
        assert (math.inf if name == "infinity" else -math.inf) in factors
    if name == "null-ends":
        assert nulls[0] and nulls[-1] and not nulls.all()
    if name == "blocks":
        assert len(factors) > 4 * cli._SIDECAR_BLOCK and len(factors) % cli._SIDECAR_BLOCK
    sha = "0123abcd" * 8
    path = tmp_path / "m.obj.attrs.json"
    write_sidecar(mesh, str(path), sha)
    assert path.read_bytes() == _json_sidecar(mesh, sha)


def test_window_without_a_valid_vertex_masks_every_cell(tmp_path, capsys):
    text = "f = 1\ng = z\ndomain = disk\nz0 = 0\nmesh_range = 1.1,1.3,-0.2,0.2\n"
    cfg = tmp_path / "outside.cfg"
    cfg.write_text(text)
    out = tmp_path / "outside.obj"
    assert main(["mesh", str(cfg), "--grid", "3x2", "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}: 6 vertices, 0 triangles, 2 masked cells\n"
    sha = hashlib.sha256(text.encode()).hexdigest()
    header = f"# maxsurf {__version__}\n# config sha256 {sha}\n# grid 3x2 mask_eps 1e-08\n"
    assert out.read_text() == header + "v 0 0 0\n" * 6
    payload = {
        "config_sha256": sha,
        "format": "maxsurf-mesh-attributes/1",
        "note": "vertices are listed in OBJ order (1-based index = position + 1)",
        "vertices": [{"conformal_factor": 0.0, "gauss": None}] * 6,
    }
    sidecar = tmp_path / "outside.obj.attrs.json"
    assert sidecar.read_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# extended surfaces: the config's one surface, meshed across its arc

_EXTENDED = ("catenoid-b07", "spacelike", "timelike", "lightlike")


@pytest.fixture(scope="module")
def extended_configs(tmp_path_factory):
    """The four extended bench configs by base name: the path of the config ``extend`` writes, and its surface."""
    out, configs = tmp_path_factory.mktemp("extended"), {}
    for name, text in bench_configs().items():
        (out / f"{name}.cfg").write_text(text)
        path = str(out / f"{name}.ext.cfg")
        assert main(["extend", str(out / f"{name}.cfg"), "-o", path]) == 0
        configs[name] = path, SurfaceConfig.from_file(path).extended_surface()
    return configs


def _sides(surface, pts):
    """Per grid point of an extended surface: 1 on the original side, -1 on the reflected one, 0 where the
    mesh has no vertex; a vertex is in the closure of contains, here within 1e-12 of it."""
    (_, here), (_, there) = surface.sides(np.array(pts))
    sides = here.astype(int) - there.astype(int)
    assert [bool(s) for s in sides] == [surface.contains(z) or surface.contains(z * (1 - 1e-12)) for z in pts]
    return sides.tolist()


def test_extended_catenoid_mesh_matches_the_closed_form_on_both_sides(extended_configs):
    # the reflected formulas reproduce f = 1/z^2, g = z, so X = catenoid_reference(log|z|, arg z) on both sides
    surface = extended_configs["catenoid-b07"][1]
    mesh, pts = build_mesh(surface, 33, 33), _grid(surface, 33, 33)
    rho = surface.original.domain.boundary_circle
    assert {abs(z) < rho for z in pts} == {False, True} and all(_sides(surface, pts))
    for z, X in zip(pts, mesh.vertices.tolist()):
        ref = catenoid_reference(math.log(abs(z)), math.atan2(z.imag, z.real)).as_tuple()
        assert max(abs(a - b) for a, b in zip(X, ref)) <= 1e-13 * (1 + max(map(abs, ref)))


@pytest.mark.parametrize("name", _EXTENDED)
def test_extended_mesh_matches_per_vertex_evaluation(extended_configs, name):
    surface, q = extended_configs[name][1], QuadratureConfig(tol=1e-10)
    mesh, pts = build_mesh(surface, 33, 33, q=q), _grid(surface, 33, 33)
    sides = _sides(surface, pts)
    assert {1, -1} <= set(sides)  # vertices on both sides of the arc
    for z, side, X in zip(pts, sides, mesh.vertices):
        if side:
            ref = np.array(evaluate_surface(surface, z, q).as_tuple())
            assert np.abs(X - ref).max() <= 10 * q.tol * (1 + np.abs(ref).max())
        else:
            assert X.tolist() == [0.0, 0.0, 0.0]


def test_a_half_disk_extension_mirrors_its_window(extended_configs):
    surface, R = extended_configs["spacelike"][1], 0.9
    assert cli._mesh_parameters(surface, None) == (False, (-0.7 * R, 0.7 * R, -0.7 * R, 0.7 * R))
    assert cli._mesh_parameters(surface.original, None) == (False, (-0.7 * R, 0.7 * R, 0.05 * R, 0.7 * R))
    assert cli._mesh_parameters(extended_configs["catenoid-b07"][1], None) == (True, (0.05, 1.0, -math.pi, math.pi))


def _assert_side_attributes(surface, pts, sides, conformal, gauss):
    """Each vertex's conformal factor and normal are those of the data of its side, within round-off."""
    for z, side, lam, N in zip(pts, sides, conformal, gauss):
        if not side:
            assert lam == 0.0 and N is None
            continue
        data = surface.side(z)
        assert data is (surface.original if side > 0 else surface.minus)
        assert lam == pytest.approx(conformal_factor(data, z), rel=1e-13)
        try:
            assert N == pytest.approx(gauss_map(data, z).as_tuple(), rel=1e-13, abs=1e-15)
        except DegenerateMetricError:
            assert N is None


def test_extended_mesh_vertices_read_the_data_of_their_side():
    # reflected formulas unlike the original's, so a vertex shows which side's data it read
    doctored = replace(extend(*spacelike_fixture()), f_minus=parse("1+z"), g_minus=parse("z/3+0.2*i"))
    mesh, pts = build_mesh(doctored, 9, 13), _grid(doctored, 9, 13)
    sides = _sides(doctored, pts)
    assert set(sides) == {1, -1}
    gauss = [None if math.isnan(N[0]) else N for N in mesh.gauss.tolist()]
    _assert_side_attributes(doctored, pts, sides, mesh.conformal.tolist(), gauss)


@pytest.mark.parametrize("name", _EXTENDED)
def test_cli_meshes_an_extended_config_with_the_data_of_each_side(tmp_path, capsys, extended_configs, name):
    cfg, surface = extended_configs[name]
    for n in (33, 65):
        out = tmp_path / f"{name}-{n}.obj"
        assert main(["mesh", cfg, "--grid", f"{n}x{n}", "-o", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {out}: {n * n} vertices, ")
    pts = _grid(surface, 33, 33)
    attrs = json.loads((tmp_path / f"{name}-33.obj.attrs.json").read_text())["vertices"]
    assert len(attrs) == len(pts)
    conformal, gauss = [a["conformal_factor"] for a in attrs], [a["gauss"] for a in attrs]
    _assert_side_attributes(surface, pts, _sides(surface, pts), conformal, gauss)
