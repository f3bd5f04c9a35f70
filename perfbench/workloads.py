"""Seeded inputs for each workload and the answer gate for each operation.

Inputs are made here, from the seed alone, before any timing starts; the
worker passes them to sl3f7 unchanged.  Every answer is checked against
the paper's exact integers and, where the answer carries a matrix, by
recomputing it with f7's independent arithmetic.
"""

from __future__ import annotations

import json
import math
import random

import f7

THREADS = {"sweep": 2, "queries": 1}
# 8 questions each: 32 samples, so the median has 16 beyond it.  Asking for
# the conjugator both ways puts the median inside the cluster of first-hit
# scans at the parent commit, not on its lower edge.
QUERY_SUBJECTS = 4
# Fresh `sl3f7` processes, 12 invocation kinds per round, run only in the
# traced pass of `queries`: they give the cli layer's per-kind latencies.
CLI_ROUNDS = 2

Y = (0, 1, 0, 0, 0, 1, 1, 0, 0)
Z = (0, 1, 0, 1, 0, 0, 6, 6, 6)

_UNITS = [e for e in range(1, 57) if math.gcd(e, 57) == 1]
_NONSCALAR = [e for e in range(1, 57) if e % 19]


def _subject(rng: random.Random, reps):
    lab = rng.choice(f7.EIGENFREE_LABELS)
    return lab, f7.conj(f7.random_sl3(rng), reps[lab])


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    reps = f7.representatives()
    if workload == "sweep":
        lab, a = _subject(rng, reps)
        return {"subject": a, "label": lab}
    if workload == "queries":
        return {"subjects": [_query_subject(rng, reps, positive=(s % 2 == 0))
                             for s in range(QUERY_SUBJECTS)],
                "invocations": [inv for _ in range(CLI_ROUNDS) for inv in _cli_round(rng, reps)]}
    raise ValueError(f"unknown workload {workload!r}")


def _query_subject(rng, reps, positive: bool) -> dict:
    _, a = _subject(rng, reps)
    k = f7.random_sl3(rng)
    gen = f7.centralizer_generator(a)
    e = [rng.choice(_UNITS), rng.choice(_NONSCALAR), rng.choice(_NONSCALAR)]
    t1 = [f7.power(gen, x) for x in e]
    if not positive:
        # gen has order 57 and e[0] is a unit, so any g with g t1[0] g^-1 = t2[0]
        # maps gen to k gen k^-1 and t1[1] to k gen^e[1] k^-1, never to this member
        e[1] = rng.choice([x for x in _NONSCALAR if x != e[1]])
    t2 = [f7.conj(k, f7.power(gen, x)) for x in e]
    p = a if f7.order(a) == 19 else f7.power(a, 3)
    # k is for the gate's tests only; the worker does not pass it to sl3f7
    return {"a": a, "b": f7.conj(k, a), "k": k, "p": p, "t1": t1, "t2": t2,
            "positive": positive}


def _tuple_file(ms) -> str:
    return "".join(f7.fmt(m) + "\n" for m in ms)


def _cli_round(rng, reps) -> list[dict]:
    _, a = _subject(rng, reps)
    _, b = _subject(rng, reps)
    plain = f7.random_sl3(rng)
    gen = f7.centralizer_generator(a)
    e1, e2 = rng.choice(_UNITS), rng.choice(_NONSCALAR)
    f = rng.choice([x for x in _NONSCALAR
                    if f7.label(f7.power(gen, x)) != f7.label(f7.power(gen, e2))])
    while True:
        x, y = f7.random_sl3(rng), f7.random_sl3(rng)
        if f7.mul(x, y) != f7.mul(y, x):
            break
    while True:
        singular = tuple(rng.randrange(7) for _ in range(9))
        if f7.det(singular) != 1:
            break
    malformed = rng.choice([
        "1 2 3; 4 5 6",
        "1 2 3; 4 5 6; 7 8",
        f"1 0 0; 0 {rng.choice([7, 9, -8])} 0; 0 0 1",
        "1 0 0; 0 x 0; 0 0 1",
    ])
    pair = {"t1.txt": _tuple_file([f7.power(gen, e1), f7.power(gen, e2)]),
            "t2.txt": _tuple_file([f7.power(gen, e1), f7.power(gen, f)])}
    return [
        {"kind": "classify", "args": ["classify", f7.fmt(a)], "code": 0, "m": a},
        {"kind": "classify-json", "args": ["classify", f7.fmt(plain), "--format", "json"],
         "code": 0, "m": plain},
        {"kind": "labels", "args": ["labels", "--format", "csv"], "code": 0},
        {"kind": "power-table", "args": ["power-table", f7.fmt(b), "--limit", "57", "--signed"],
         "code": 0, "m": b},
        {"kind": "reduce-Y", "args": ["reduce", f7.fmt(f7.random_outside_parabolic(rng)),
                                      "--target", "Y", "--format", "json"], "code": 0},
        {"kind": "reduce-Z", "args": ["reduce", f7.fmt(f7.random_outside_parabolic(rng)),
                                      "--target", "Z", "--format", "json"], "code": 0},
        {"kind": "commuting-reps", "args": ["commuting-reps", "--format", "json"], "code": 0},
        {"kind": "parabolic", "args": ["parabolic", "--format", "json"], "code": 0},
        {"kind": "simconj", "args": ["simconj", "t1.txt", "t2.txt"], "files": pair, "code": 0},
        {"kind": "error-malformed", "args": ["classify", malformed], "code": 2},
        {"kind": "error-det", "args": ["classify", f7.fmt(singular)], "code": 3},
        {"kind": "error-noncommuting", "args": ["simconj", "bad.txt", "t2.txt"],
         "files": {"bad.txt": _tuple_file([x, y]), "t2.txt": pair["t2.txt"]}, "code": 4},
    ]


# ---------------------------------------------------------------------------
# answer gate: each check returns None when the answer is right, else a reason


def _mat(v):
    return tuple(v) if v is not None else None


def check_sweep(inputs: dict, name: str, ans, ops: dict):
    lab = tuple(inputs["label"])
    if name == "count_sl3":
        return None if ans == f7.GROUP_ORDER else f"count_sl3 = {ans}"
    if name in ("census", "census.1t"):
        by_trace = {}
        for i, _ in f7.EIGENFREE_LABELS:
            by_trace[str(i)] = by_trace.get(str(i), 0) + f7.CLASS_SIZE
        want = {"group_order": f7.GROUP_ORDER, "eigenfree_total": f7.EIGENFREE_TOTAL,
                "by_trace": by_trace,
                "by_label": [{"i": i, "j": j, "count": f7.CLASS_SIZE}
                             for i, j in f7.EIGENFREE_LABELS]}
        if ans != want:
            return f"{name} = {json.dumps(ans)}"
        if name == "census.1t" and ans != ops.get("census"):
            return "census differs between 1 and 2 threads"
        return None
    if name == "count_order19_elements":
        return None if ans == f7.ORDER19_ELEMENTS else f"order-19 elements = {ans}"
    if name.startswith("order_absence_check."):
        want = name != "order_absence_check.3"  # order 3 is present; 9 and 27 are absent
        return None if ans is want else f"{name} = {ans}"
    if name == "orbit_oracle":
        if ans["size"] != f7.CLASS_SIZE:
            return f"orbit size {ans['size']}"
        for code in ans["sample"]:
            m = f7.decode(code)
            if f7.det(m) != 1 or f7.label(m) != lab:
                return f"orbit member {code} is not in class {lab}"
        return None
    if name == "label_member_codes":
        if ans["size"] != f7.CLASS_SIZE or not ans["equal_to_orbit"]:
            return f"label set {ans} differs from the orbit"
        return None
    if name == "generator_closure.xyz":
        return None if ans == f7.GROUP_ORDER else f"closure <X,Y,Z> = {ans}"
    if name == "generator_closure.parabolic":
        return None if ans == f7.CLASS_SIZE else f"closure of H generators = {ans}"
    return f"unknown operation {name}"


def check_query(subject: dict, name: str, ans):
    a, b = _mat(subject["a"]), _mat(subject["b"])
    if name == "centralizer":
        g = _mat(ans["generator"])
        if ans["size"] != f7.CENTRALIZER_SIZE or not ans["is_cyclic"] or g is None:
            return f"centralizer {ans}"
        if f7.det(g) != 1 or f7.mul(g, a) != f7.mul(a, g) or f7.order(g) != 57:
            return f"centralizer generator {g} is wrong"
        return None
    if name == "class_size":
        return None if ans == f7.CLASS_SIZE else f"class size {ans}"
    if name.startswith("find_conjugator"):
        g, (x, y) = _mat(ans), ((b, a) if name.endswith(".back") else (a, b))
        if g is None or f7.det(g) != 1 or f7.conj(g, x) != y:
            return f"{name}: {g} does not conjugate {x} to {y}"
        return None
    if name.startswith("analyze_tuple."):
        members = subject["t1" if name.endswith("1") else "t2"]
        base = _mat(ans.get("base"))
        if ans["kind"] != "CommutingTuple" or f7.order(base) != 57:
            return f"{name} = {ans}"
        if any(f7.power(base, e) != tuple(m) for e, m in zip(ans["exponents"], members)):
            return f"{name} exponents do not recompose the members"
        return None
    if name == "decide_simconj":
        if ans["equivalent"] is not subject["positive"]:
            return f"simconj verdict {ans['equivalent']}, built {subject['positive']}"
        if subject["positive"]:
            g = _mat(ans["witness"])
            if g is None or f7.det(g) != 1 or any(
                    f7.conj(g, tuple(x)) != tuple(y)
                    for x, y in zip(subject["t1"], subject["t2"])):
                return f"simconj witness {g} does not verify"
        return None
    if name == "normalizer_of_cyclic":
        return None if ans == f7.NORMALIZER_SIZE else f"normalizer {ans}"
    return f"unknown operation {name}"


def check_cli(inv: dict, code: int, out: str, err: str):
    if "Traceback" in err:
        return f"{inv['kind']}: traceback on stderr"
    if code != inv["code"]:
        return f"{inv['kind']}: exit {code}, expected {inv['code']}"
    if code != 0:
        return None if err.startswith("error:") else f"{inv['kind']}: no error message"
    try:
        return _CLI_CHECKS[inv["kind"]](inv, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{inv['kind']}: unreadable output ({exc})"


def _cli_classify(inv, out):
    m = tuple(inv["m"])
    want = [f"label:      [{f7.label(m)[0]},{f7.label(m)[1]}]", f"order:      {f7.order(m)}",
            "eigenfree:  yes"]
    lines = out.splitlines()
    return None if all(w in lines for w in want) else "classify: wrong label or order"


def _cli_classify_json(inv, out):
    m, doc = tuple(inv["m"]), json.loads(out)
    eigenfree = not f7.has_eigenvalue(m)
    got = (doc["det"], doc["trace"], doc["eigenfree"], doc["label"], doc["order"])
    want = (1, f7.label(m)[0], eigenfree, list(f7.label(m)) if eigenfree else None, f7.order(m))
    return None if got == want else f"classify json {got}, expected {want}"


def _cli_labels(inv, out):
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if lines[0] != "i,j,order,psl_i,psl_j,representative" or len(rows) != 18:
        return "labels: wrong table shape"
    if [(int(r[0]), int(r[1])) for r in rows] != list(f7.EIGENFREE_LABELS):
        return "labels: wrong label set"
    for r in rows:
        rep = f7.parse(r[5])
        if f7.det(rep) != 1 or f7.label(rep) != (int(r[0]), int(r[1])) or f7.order(rep) != int(r[2]):
            return f"labels: row {r} is wrong"
    return None


def _cli_power_table(inv, out):
    m = tuple(inv["m"])
    rows = out.splitlines()[1:]
    if len(rows) != 57:
        return f"power-table: {len(rows)} rows"
    mk = f7.IDENTITY
    for k, line in enumerate(rows, 1):
        mk = f7.mul(mk, m)
        pair = "[{},{}]".format(*f7.label(mk))
        if line.split()[0] != str(k) or f7.fmt(mk, signed=True) not in line or pair not in line:
            return f"power-table: row {k} is wrong"
    return None


def _cli_reduce(inv, out):
    doc = json.loads(out)
    target = Y if inv["kind"] == "reduce-Y" else Z
    cur = f7.parse(doc["start"])
    if f7.fmt(cur) != inv["args"][1] or f7.parse(doc["target"]) != target or not doc["verified"]:
        return "reduce: wrong start, target or verdict"
    for step in doc["steps"]:
        h = f7.parse(step["factor"])
        if f7.det(h) != 1 or not f7.in_parabolic(h):
            return f"reduce: factor {step['factor']} is outside H"
        cur = f7.mul(h, cur) if step["side"] == "left" else f7.mul(cur, h)
    return None if cur == target else "reduce: steps do not recompose to the target"


def _cli_commuting_reps(inv, out):
    reps = [(tuple(r["label"]), f7.parse(r["matrix"])) for r in json.loads(out)["reps"]]
    if sorted(lab for lab, _ in reps) != list(f7.EIGENFREE_LABELS):
        return "commuting-reps: labels do not cover the 18 classes"
    if any(f7.label(m) != lab for lab, m in reps):
        return "commuting-reps: a representative has the wrong label"
    ms = [m for _, m in reps]
    if any(f7.mul(x, y) != f7.mul(y, x) for x in ms for y in ms):
        return "commuting-reps: representatives do not commute"
    return None


def _cli_parabolic(inv, out):
    doc = json.loads(out)
    ok = doc["size"] == f7.CLASS_SIZE and doc["index"] == f7.PARABOLIC_INDEX
    return None if ok else f"parabolic {doc}"


def _cli_simconj(inv, out):
    return None if json.loads(out)["equivalent"] is False else "simconj: mismatched pair called equivalent"


_CLI_CHECKS = {
    "classify": _cli_classify,
    "classify-json": _cli_classify_json,
    "labels": _cli_labels,
    "power-table": _cli_power_table,
    "reduce-Y": _cli_reduce,
    "reduce-Z": _cli_reduce,
    "commuting-reps": _cli_commuting_reps,
    "parabolic": _cli_parabolic,
    "simconj": _cli_simconj,
}
