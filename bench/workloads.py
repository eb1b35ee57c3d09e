"""The benchmark's three workloads.

Each workload is a closed loop with one client: the worker sends the next
request only when the previous one has finished.  A workload hands out
requests in passes (``next_pass``); the pass contents and order come from the
seed alone, so request ``i`` of a run is the same for every run with that
seed.  ``run`` is the timed call; ``check`` and ``size`` run outside the
timed region.

* ``gauge_cli``: one fresh ``python -m jetvar`` process per request on the
  gauge models, as a CLI user runs it.
* ``divergence_random``: in-process divergence decisions and witnesses on
  seeded graded densities.
* ``theory_eval``: in-process box integrals and on-shell reductions on the
  builtin Lagrangians.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jetvar

import inputs

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def printed_terms(text: str) -> int:
    """Monomials in the ``name = expression`` lines of CLI output."""
    count = 0
    for line in text.splitlines():
        if " = " not in line:
            continue
        expr = line.split(" = ", 1)[1]
        if expr != "0":
            count += 1 + expr.count(" + ") + expr.count(" - ")
    return count


# ---------------------------------------------------------------------------
# gauge_cli

MUTATION = " + 1/2 * eps[a,b,c]*C*[a]*C[b]*C[c]"

FREE_MODEL = (
    "# one-component free particle\n"
    "vars t\n"
    "metric diag(1)\n"
    "params m\n"
    "field u\n"
    "lagrangian 1/2 * m * d(u;t)^2\n"
)

_YM_ARGS = {
    "master": [],
    "el": [],
    "kt": ["--expr", "C*[a]*C[a]"],
    "brst": ["--expr", "A[a,mu]*A[a,mu]"],
    "bracket": ["--f", "A[a,mu]*A[a,mu]", "--g", "A*[b,nu]*d(C[b];nu)"],
    "symm": ["--q", "A[a,mu]=d(C[a];mu)"],
    "noether": ["--op", "d(EL(A[1,nu]);nu) + eps[1,a,c]*A[a,nu]*EL(A[c,nu])"],
}

_MAXWELL_ARGS = {
    "master": [],
    "el": [],
    "kt": ["--expr", "C* * C"],
    "brst": ["--expr", "A[mu]*A[mu]"],
    "bracket": ["--f", "A[mu]*A[mu]", "--g", "A*[nu]*d(C;nu)"],
    "symm": ["--q", "A[mu]=d(C;mu)"],
    "noether": ["--op", "d(EL(A[nu]);nu)"],
}

_FREE_REQUESTS = {
    "divergence.free": ["divergence", "free.jv", "--expr", "d(u;t)*d(d(u;t);t)", "--witness"],
    "eval.free": ["eval", "free.jv", "--section", "u=t^2", "--box", "t=0..1", "--param", "m=2"],
    "noether.free": ["noether", "free.jv", "--op", "d(EL(u);t)"],
    "divergence.free_particle": [
        "divergence", "free_particle.jv", "--expr",
        "d(u[1];t)*d(d(u[1];t);t) + u[2]*d(u[3];t) + d(u[2];t)*u[3]", "--witness",
    ],
    "eval.free_particle": [
        "eval", "free_particle.jv", "--section", "u[1]=t^2;u[2]=t;u[3]=1-t",
        "--box", "t=0..1", "--param", "m=2",
    ],
    "el.free_particle": ["el", "free_particle.jv"],
}


def gauge_requests(dims) -> dict:
    """Request key -> CLI argv, for the gauge models at the given dimensions."""
    requests = {}
    for n in dims:
        for model, table in (("yang_mills_su2", _YM_ARGS), ("maxwell", _MAXWELL_ARGS)):
            for command, extra in table.items():
                requests[f"{command}.{model}.n{n}"] = [command, f"{model}_{n}.jv", *extra]
        if n in (2, 3):
            requests[f"master.mutated_su2.n{n}"] = ["master", f"mutated_su2_{n}.jv"]
    requests.update(_FREE_REQUESTS)
    return requests


class GaugeCli:
    """Fresh ``python -m jetvar`` processes on emitted gauge model files.

    ``parse_model`` re-verifies the gauge identities on every request, so
    the parser, bv and printer carry most of the load; the su(2) n=4
    requests form the latency tail.
    """

    name = "gauge_cli"

    def __init__(self, seed: int, smoke: bool, workdir: Path, src: Path):
        import jetvar.cli  # noqa: F401  (emits the model files, as `jetvar models --emit`)

        self.rng = random.Random(seed)
        self.smoke = smoke
        dims = (2,) if smoke else (2, 3, 4)
        self.models = workdir / "models"
        self.models.mkdir(parents=True, exist_ok=True)
        for n in dims:
            for model in ("yang_mills_su2", "maxwell"):
                self._emit(f"{model}_{n}.jv", ["--emit", model, "--dim", str(n)])
        for n in (2, 3) if not smoke else (2,):
            text = (self.models / f"yang_mills_su2_{n}.jv").read_text()
            (self.models / f"mutated_su2_{n}.jv").write_text(text.replace(MUTATION, ""))
        self._emit("free_particle.jv", ["--emit", "free_particle"])
        (self.models / "free.jv").write_text(FREE_MODEL)
        self.requests = gauge_requests(dims)
        self.keys = sorted(self.requests)
        self.reference = load_reference(self.name)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.spans_dir = workdir / "spans"
        self.spans_dir.mkdir(exist_ok=True)

    def _emit(self, filename, argv):
        with open(self.models / filename, "w", encoding="utf-8") as out:
            if jetvar.cli.cli_dispatch(["models", *argv], out=out) != 0:
                raise RuntimeError(f"could not emit {filename}")

    def next_pass(self):
        keys = list(self.keys)
        self.rng.shuffle(keys)
        return keys

    def kind(self, key) -> str:
        return key

    def describe(self, key) -> str:
        return " ".join(self.requests[key])

    def fingerprint(self, key) -> str:
        return key

    def span_file(self, index: int) -> Path:
        return self.spans_dir / f"request-{index}.bin"

    def run(self, key, index, traced):
        argv = self.requests[key]
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"),
                   str(self.span_file(index)), str(index), *argv]
        else:
            cmd = [sys.executable, "-m", "jetvar", *argv]
        proc = subprocess.run(cmd, cwd=self.models, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return proc.returncode, proc.stdout

    def check(self, key, result) -> bool:
        ref = self.reference[key]
        code, stdout = result
        return code == ref["exit"] and hashlib.sha256(stdout).hexdigest() == ref["sha256"]

    def size(self, key, result) -> dict:
        stdout = result[1]
        return {"stdout_bytes": len(stdout),
                "terms_out": printed_terms(stdout.decode("utf-8", "replace"))}

    def compare_reference(self, seed, worksize, traced_sizes, results):
        """Work-size flags against the per-request sizes recorded in the reference."""
        flags = []
        for table in (worksize, traced_sizes):
            for key, total in sorted(table.items()):
                n = total["requests"]
                for field, value in total.items():
                    want = self.reference[key].get(field)
                    if field != "requests" and want is not None and value != want * n:
                        flags.append(f"{key} {field}: {value / n:g} per request, "
                                     f"reference {want}")
        return flags, []


# ---------------------------------------------------------------------------
# in-process workloads


class _InProcess:
    """Reference comparison shared by the seeded in-process workloads.

    The reference file holds the work size of the first requests for each
    recorded seed and, for theory_eval, their exact results at the default
    seed; a differing work size is flagged, a differing result fails.
    """

    name = ""

    def compare_reference(self, seed, worksize, traced_sizes, results):
        if self.smoke:
            return [], []
        ref = load_reference(self.name)
        flags = []
        expected = ref["worksize"].get(str(seed))
        if expected is not None:
            for kind in sorted(set(expected) | set(worksize)):
                if expected.get(kind) != worksize.get(kind):
                    flags.append(f"{kind}: {worksize.get(kind)}, reference {expected.get(kind)}")
        failures = []
        if seed == ref.get("default_seed") and "values" in ref:
            for i, (got, want) in enumerate(zip(results, ref["values"])):
                if got != want:
                    failures.append(f"request {i}: result differs from the reference value")
        return flags, failures


# ---------------------------------------------------------------------------
# divergence_random


class DivergenceRandom(_InProcess):
    """Divergence decisions on seeded densities ``sum_i D_i F^i`` (+ a defect).

    Half the requests carry a defect of nonzero variational derivative, so
    every verdict is known by construction; n=1 "yes" requests also build
    the witness, which ``check`` re-derives exactly outside the timed call.
    """

    name = "divergence_random"
    KINDS = (("n1", True), ("n1", False), ("n3", True), ("n3", False))

    def __init__(self, seed: int, smoke: bool, workdir: Path, src: Path):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.sigs = {"n1": inputs.graded_signature(1), "n3": inputs.graded_signature(3)}
        self.seen = set()

    def next_pass(self):
        kinds = list(self.KINDS)
        self.rng.shuffle(kinds)
        batch = []
        for space, divergence in kinds:
            while True:
                e = inputs.divergence_input(self.sigs[space], self.rng, defect=not divergence)
                fingerprint = inputs.digest64(inputs.serialize(e))
                if fingerprint not in self.seen:
                    break
            self.seen.add(fingerprint)
            batch.append((f"{space}.{'yes' if divergence else 'no'}", e, divergence, fingerprint))
        return batch

    def kind(self, req) -> str:
        return req[0]

    def describe(self, req) -> str:
        return inputs.serialize(req[1])

    def fingerprint(self, req) -> int:
        return req[3]

    def run(self, req, index, traced):
        e = req[1]
        verdict = jetvar.is_total_divergence(e)
        witness = None
        if verdict and e.sig.nvars == 1:
            witness = jetvar.divergence_witness(e)
        return verdict, witness

    def check(self, req, result) -> bool:
        kind, e, expected, _ = req
        verdict, witness = result
        if verdict != expected:
            return False
        if kind == "n1.yes":
            return witness is not None and jetvar.total_derivative(witness["t"], 0) == e
        return witness is None

    def size(self, req, result) -> dict:
        witness = result[1]
        out = len(witness["t"].terms) if witness else 0
        return {"terms_in": len(req[1].terms), "terms_out": out}



# ---------------------------------------------------------------------------
# theory_eval


class _Poly:
    """Independent dense-dict polynomial arithmetic over Q for the checks."""

    @staticmethod
    def mul(a: dict, b: dict) -> dict:
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    @staticmethod
    def derive(p: dict, mindex: tuple) -> dict:
        out = {}
        for exps, c in p.items():
            coeff = Fraction(c)
            new = []
            for e, k in zip(exps, mindex):
                for j in range(k):
                    coeff *= e - j
                new.append(e - k)
            if coeff:
                out[tuple(new)] = coeff
        return out

    @staticmethod
    def integrate(p: dict, box: list) -> Fraction:
        total = Fraction(0)
        for exps, c in p.items():
            term = Fraction(c)
            for e, (lo, hi) in zip(exps, box):
                term *= (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)
            total += term
        return total


def independent_integral(theory, section_polys: dict, box: dict, params: dict) -> Fraction:
    """The box integral of the Lagrangian on a section, without jetvar arithmetic.

    Reads the Lagrangian's monomials and evaluates them with ``_Poly``, so it
    shares no code with ``evaluate_density``/``integrate_box_polynomial``.
    """
    sig = theory.signature
    var_ids = [i for i, g in enumerate(sig.generators) if g.role == "independent-variable"]
    nv = len(var_ids)
    zero = (0,) * nv
    total = {}
    for mono in theory.lagrangian.terms:
        value = {zero: Fraction(mono.coeff)}
        for atom, exp in mono.even:
            gen = sig.generators[atom.gen]
            if gen.role == "independent-variable":
                factor = {tuple(exp if k == var_ids.index(atom.gen) else 0
                                for k in range(nv)): Fraction(1)}
                value = _Poly.mul(value, factor)
                continue
            if gen.role == "parameter":
                factor = {zero: Fraction(params[gen.name]) ** exp}
            else:
                factor = _Poly.derive(section_polys[(gen.name, atom.comp)], atom.mindex)
                base = factor
                for _ in range(exp - 1):
                    factor = _Poly.mul(factor, base)
            value = _Poly.mul(value, factor)
        for e, c in value.items():
            total[e] = total.get(e, 0) + c
    names = [sig.generators[i].name for i in var_ids]
    return _Poly.integrate(total, [box[name] for name in names])


class TheoryEval(_InProcess):
    """Box integrals and on-shell reductions on the builtin Lagrangians.

    The work is dense products and substitutions of base-variable
    polynomials with growing rationals.  Integrals are re-checked with an
    independent polynomial evaluator; on-shell results must contain no
    coordinate the reduction rewrites.
    """

    name = "theory_eval"
    # su(2) n=3 comes twice per pass, so the p90 latency falls inside its
    # distribution rather than on the edge between two request kinds
    INTEGRATE = (("scalar_phi4", 2), ("scalar_phi4", 3), ("maxwell", 3), ("maxwell", 4),
                 ("yang_mills_su2", 2), ("yang_mills_su2", 3), ("yang_mills_su2", 3),
                 ("free_particle", None))
    ON_SHELL = (("scalar_phi4", 2), ("free_particle", None))
    ON_SHELL_ORDER = 4
    # inputs stay below the reduction order: order-4 inputs under the phi^3
    # and cubic-potential rules give a heavy tail of second-long requests
    ON_SHELL_INPUT_ORDER = 3

    def __init__(self, seed: int, smoke: bool, workdir: Path, src: Path):
        self.rng = random.Random(seed)
        self.smoke = smoke
        integrate = self.INTEGRATE
        if smoke:
            integrate = tuple(k for k in integrate if k[0] != "yang_mills_su2" or k[1] == 2)
        self.kinds = [("integrate", m, n) for m, n in integrate]
        self.kinds += [("on_shell", m, n) for m, n in self.ON_SHELL]
        self.theories = {(m, n): jetvar.builtin(m, dim=n).theory for _, m, n in self.kinds}
        self.seen = set()

    @staticmethod
    def kind_name(kind) -> str:
        op, model, n = kind
        return f"{op}.{model}" + (f".n{n}" if n else "")

    def _free_particle(self):
        base = self.theories[("free_particle", None)]
        potential = inputs.random_potential(base.signature, self.rng)
        return jetvar.Theory(base.signature, base.lagrangian - potential)

    def _draw(self, kind):
        op, model, n = kind
        theory = self.theories[(model, n)]
        if model == "free_particle":
            theory = self._free_particle()
        sig = theory.signature
        if op == "on_shell":
            e = inputs.random_density(sig, self.rng, max_terms=3,
                                      max_order=self.ON_SHELL_INPUT_ORDER, max_factors=3)
            return {"theory": theory, "expr": e}
        polys = {key: inputs.random_poly(sig.nvars, self.rng, 3, 2) for key in theory.field_components()}
        section = jetvar.Section(theory, {k: inputs.poly_expression(sig, p) for k, p in polys.items()})
        params = {g.name: inputs.rational(self.rng)
                  for g in sig.generators if g.role == "parameter"}
        return {"theory": theory, "polys": polys, "section": section,
                "box": inputs.random_box(sig, self.rng), "params": params}

    def next_pass(self):
        kinds = list(self.kinds)
        self.rng.shuffle(kinds)
        batch = []
        for kind in kinds:
            while True:
                data = self._draw(kind)
                fingerprint = inputs.digest64(self._serialize(kind, data))
                if fingerprint not in self.seen:
                    break
            self.seen.add(fingerprint)
            batch.append((self.kind_name(kind), kind, data, fingerprint))
        return batch

    @staticmethod
    def _serialize(kind, data) -> str:
        parts = [kind[0], inputs.serialize(data["theory"])]
        if kind[0] == "on_shell":
            parts.append(inputs.serialize(data["expr"]))
        else:
            parts += [inputs.serialize(data["section"]), inputs.serialize(data["box"]),
                      inputs.serialize(data["params"])]
        return "|".join(parts)

    def kind(self, req) -> str:
        return req[0]

    def describe(self, req) -> str:
        return self._serialize(req[1], req[2])

    def fingerprint(self, req) -> int:
        return req[3]

    def run(self, req, index, traced):
        _, kind, data, _ = req
        theory = data["theory"]
        if kind[0] == "on_shell":
            return jetvar.on_shell_reduce(data["expr"], theory, self.ON_SHELL_ORDER)
        return jetvar.integrate_on_box(theory.functional(theory.lagrangian), data["section"],
                                data["box"], params=data["params"])

    def check(self, req, result) -> bool:
        _, kind, data, _ = req
        if kind[0] == "on_shell":
            # both models solve their EL system for the second t-derivative
            gens = result.sig.generators
            return not any(gens[a.gen].role == "field" and a.mindex[0] >= 2
                           for a in result.atoms())
        expected = independent_integral(data["theory"], data["polys"], data["box"], data["params"])
        return result == expected

    def size(self, req, result) -> dict:
        _, kind, data, _ = req
        theory = data["theory"]
        if kind[0] == "on_shell":
            return {"terms_in": len(data["expr"].terms), "terms_out": len(result.terms)}
        section_terms = sum(len(p.terms) for p in data["section"].values.values())
        return {"terms_in": len(theory.lagrangian.terms) + section_terms,
                "value_chars": len(str(result))}

    def result_text(self, req, result) -> str:
        """Exact text of a result, compared with the reference at the default seed."""
        return inputs.serialize(result)


WORKLOADS = {cls.name: cls for cls in (GaugeCli, DivergenceRandom, TheoryEval)}
