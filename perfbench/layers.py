"""Per-layer metrics computed from one traced pass.

`_s` is wall time inside the named public calls (outermost calls only, so
nested calls are not counted twice), `self_s` is a layer's time minus the
time of its child spans, and counts must repeat exactly between traced
runs of the same input. Every metric is reported for every workload; a
layer a workload does not reach reads 0. Every span name used here must
belong to a wrapped function (the tracer raises otherwise), so a renamed
or removed function stops the traced run instead of reading 0.
"""

from __future__ import annotations

import statistics

from tracer import tail_value

# fplab.verify.CRITERIA at the time the benchmark was defined; the names
# are fixed here so that the metric list does not follow a renamed criterion
CRITERIA = (
    "density_oracle",
    "divergence_free",
    "energy_identity",
    "sector_bound",
    "resolvent_axioms",
    "generator_identities",
    "energy_bound",
    "constants_ledger",
    "mollifier_suite",
    "vmo_diagnostics",
)
CLI_STAGES = ("mesh", "density", "verify")


def per_layer_metrics(tr, result) -> dict:
    """Per-layer metrics of one traced pass, keyed by their fixed names."""
    m = {}
    meshes = tr.meshes or [(0, 0, 0)]
    m["mesh.build_s"] = tr.time_in({"mesh.build_ball_mesh", "mesh.build_box_mesh",
                                    "mesh.refine_uniform", "mesh.read_mesh"})
    m["mesh.audit_s"] = tr.time_in({"mesh.mesh_quality", "mesh.check_conformity"})
    m["mesh.vertices"] = max(v for v, _, _ in meshes)
    m["mesh.elements"] = max(e for _, e, _ in meshes)

    m["quadrature.gauss_legendre_calls"] = tr.count({"quadrature.gauss_legendre"})
    m["quadrature.gauss_legendre_s"] = tr.time_in({"quadrature.gauss_legendre"})

    assembly = {f"fem.{n}" for n in ("assemble_weighted_stiffness", "assemble_drift",
                                     "assemble_weighted_mass", "assemble_load")}
    m["fem.assembly_s"] = tr.time_in(assembly)
    m["fem.assembly_calls"] = tr.count(assembly)
    m["fem.geometry_calls"] = tr.count({"fem.element_geometry"})

    m["coefficients.vmo_s"] = tr.time_in({"coefficients.vmo_modulus",
                                          "coefficients.vmo_product_inequality_check"})

    dens = tr.factor_events("density")
    m["density.solve_s"] = tr.time_in({"density.solve_invariant_density"})
    m["density.decompose_s"] = tr.time_in({"density.decompose_drift"})
    m["density.factorizations"] = len(dens)
    m["density.factor_s"] = sum((f["seconds"] for f in dens), 0.0)

    forms = tr.factor_events("forms")
    solves = tr.durations("forms.solve_resolvent")
    m["forms.assemble_s"] = tr.time_in({"forms.assemble_form"})
    m["forms.solve_calls"] = len(solves)
    m["forms.solve_s"] = float(statistics.median(solves)) if solves else 0.0
    m["forms.solve_s_tail"] = tail_value(solves)
    m["forms.factorizations"] = len(forms)
    m["forms.distinct_systems"] = len({f["system"] for f in forms})
    m["forms.factor_s"] = sum((f["seconds"] for f in forms), 0.0)
    m["forms.backsolve_s"] = sum(tr.backsolve_seconds("forms"), 0.0)
    m["forms.lu_fill_nnz"] = max((f["lu_nnz"] or 0 for f in forms), default=0)
    m["forms.eig_s"] = tr.time_in({"forms.first_dirichlet_eigenpair"})

    m["experiment.constants_s"] = tr.time_in({"experiment.compute_constants"})
    m["experiment.self_s"] = tr.self_time("experiment")

    moll = tr.layer_entries("mollifiers")
    m["mollifiers.calls"] = len(moll)
    m["mollifiers.s"] = sum(moll, 0.0)

    for name in CRITERIA:
        m[f"verify.{name}_s"] = tr.time_in({f"verify.criterion_{name}"})

    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = tr.time_in({f"cli.cmd_{stage}"})
    m["cli.self_s"] = tr.self_time("cli")
    m["cli.bytes_written"] = result.bytes_written

    m["config.parse_s"] = tr.time_in({"config.parse_config", "config.parse_config_text"})
    return m


def problem_size(tr) -> dict:
    """Sizes of the meshes built and of the factored systems, grouped by size."""
    shapes = {}
    for f in tr.factorizations:
        key = (f["layer"], f["kind"], f["n"], f["nnz"], f["lu_nnz"])
        entry = shapes.setdefault(key, {"layer": key[0], "kind": key[1], "n": key[2],
                                        "nnz": key[3], "lu_nnz": key[4], "count": 0,
                                        "systems": set()})
        entry["count"] += 1
        entry["systems"].add(f["system"])
    systems = [dict(e, systems=len(e["systems"])) for e in shapes.values()]
    layers = sorted({f["layer"] for f in tr.factorizations} | {lay for lay, _ in tr.backsolves})
    finest = max(tr.meshes, default=(0, 0, 0))
    return {
        "vertices": finest[0],
        "elements": finest[1],
        "interior_dofs": finest[2],
        "meshes_built": len(tr.meshes),
        "factored_systems": systems,
        "factorizations": {lay: len(tr.factor_events(lay)) for lay in layers},
        "backsolves": {lay: len(tr.backsolve_seconds(lay)) for lay in layers},
        "resolvent_solves": len(tr.durations("forms.solve_resolvent")),
        # the ROADMAP Baseline columns not reported elsewhere
        "forms_factor_s_median": _median(f["seconds"] for f in tr.factor_events("forms")),
        "forms_backsolve_s_median": _median(tr.backsolve_seconds("forms")),
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None
