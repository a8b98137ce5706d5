"""Programmatic builders for the encoding constructions.

The shipped ``corpus/`` directory carries the generic (parameter-quantified)
constructions as human-auditable source files.  The builders here emit
surface declarations that instantiate those constructions at concrete
parameters; the tests drive them across small instances (empty, unit,
two-element) and hand the output to the type checker.
"""

from __future__ import annotations


# --- instance builders -------------------------------------------------------------
#
# Parameters are surface expressions; outputs are lists of declaration
# strings.  Each fragment first names its parameters with typed definitions
# (keeping every later application head inferable), then instantiates the
# generic corpus definitions, so fragments must be checked after the
# corresponding corpus file.


def _dw_params(i: str, n: str, br: str, ar: str, p: str) -> list[str]:
    return [
        f"def {p}I : U0 := {i}",
        f"def {p}N : {p}I -> U0 := {n}",
        f"def {p}Br : (i0 : {p}I) -> {p}N i0 -> U0 := {br}",
        f"def {p}ar : (i0 : {p}I) -> (n0 : {p}N i0) -> {p}Br i0 n0 -> {p}I := {ar}",
    ]


def _cover_params(a: str, ifam: str, cfam: str, v: str, p: str) -> list[str]:
    return [
        f"def {p}A : U0 := {a}",
        f"def {p}If : {p}A -> U0 := {ifam}",
        f"def {p}Cf : (a0 : {p}A) -> {p}If a0 -> {p}A -> U0 := {cfam}",
        f"def {p}V : {p}A -> U0 := {v}",
    ]


def _wp_params(i: str, n: str, r: str, p: str) -> list[str]:
    return [
        f"def {p}I : U0 := {i}",
        f"def {p}N : {p}I -> U0 := {n}",
        f"def {p}R : (i0 : {p}I) -> {p}N i0 -> {p}I -> U0 := {r}",
    ]


def _w_params(a: str, b: str, p: str) -> list[str]:
    return [
        f"def {p}A : U0 := {a}",
        f"def {p}B : {p}A -> U0 := {b}",
    ]


def build_free(i: str, n: str, br: str, prefix: str = "i") -> list[str]:
    p = prefix
    return _dw_params(i, n, br, f"fun i0 => fun n0 => fun b => absurd (fun z => {p}I) b", p)[:3] + [
        f"def {p}Free : U0 := W ((i0 : {p}I) * {p}N i0) (fun z => {p}Br (fst z) (snd z))",
    ]


def build_legal(i: str, n: str, br: str, ar: str, prefix: str = "i") -> list[str]:
    p = prefix
    return _dw_params(i, n, br, ar, p) + [
        f"def {p}Free : U0 := W ((i0 : {p}I) * {p}N i0) (fun z => {p}Br (fst z) (snd z))",
        f"def {p}Legal : {p}I -> {p}Free -> U0 := "
        f"fun i0 => fun w0 => elimW (fun w2 => {p}I -> U0) "
        f"(fun z => fun f => fun h => fun i2 => "
        f"((b : {p}Br (fst z) (snd z)) -> h b ({p}ar (fst z) (snd z) b)) * Id {p}I i2 (fst z)) "
        f"w0 i0",
    ]


def build_dw_encoding(i: str, n: str, br: str, ar: str, prefix: str = "i") -> list[str]:
    """Interpretation of dependent trees via plain trees, instantiated."""
    p = prefix
    ps = f"{p}I {p}N {p}Br {p}ar"
    return _dw_params(i, n, br, ar, p) + [
        f"def {p}DWp : {p}I -> U0 := DWp {ps}",
        f"def {p}dsup : (i0 : {p}I) -> (n0 : {p}N i0) -> "
        f"((b : {p}Br i0 n0) -> {p}DWp ({p}ar i0 n0 b)) -> {p}DWp i0 := "
        f"dsupP {ps}",
        f"def {p}elim : (M : (i0 : {p}I) -> {p}DWp i0 -> U0) -> "
        f"(d : (i0 : {p}I) -> (n0 : {p}N i0) -> "
        f"(f : (b : {p}Br i0 n0) -> {p}DWp ({p}ar i0 n0 b)) -> "
        f"(h : (b : {p}Br i0 n0) -> M ({p}ar i0 n0 b) (f b)) -> "
        f"M i0 ({p}dsup i0 n0 f)) -> "
        f"(i0 : {p}I) -> (w : {p}DWp i0) -> M i0 w := "
        f"elimDWp {ps}",
        f"def {p}comp : (M : (i0 : {p}I) -> {p}DWp i0 -> U0) -> "
        f"(d : (i0 : {p}I) -> (n0 : {p}N i0) -> "
        f"(f : (b : {p}Br i0 n0) -> {p}DWp ({p}ar i0 n0 b)) -> "
        f"(h : (b : {p}Br i0 n0) -> M ({p}ar i0 n0 b) (f b)) -> "
        f"M i0 ({p}dsup i0 n0 f)) -> "
        f"(i0 : {p}I) -> (n0 : {p}N i0) -> "
        f"(f : (b : {p}Br i0 n0) -> {p}DWp ({p}ar i0 n0 b)) -> "
        f"Id (M i0 ({p}dsup i0 n0 f)) "
        f"({p}elim M d i0 ({p}dsup i0 n0 f)) "
        f"(d i0 n0 f (fun b => {p}elim M d ({p}ar i0 n0 b) (f b))) := "
        f"cdwCheck {ps}",
    ]


def build_dw_iso(i: str, n: str, br: str, ar: str, prefix: str = "i") -> list[str]:
    p = prefix
    ps = f"{p}I {p}N {p}Br {p}ar"
    return _dw_params(i, n, br, ar, p) + [
        f"def {p}dwIso : (i0 : {p}I) -> Iso (DW {ps} i0) (DWp {ps} i0) := isoDW {ps}",
    ]


def build_cover_as_wp(a: str, ifam: str, cfam: str, v: str, prefix: str = "i") -> list[str]:
    p = prefix
    ps = f"{p}A {p}If {p}Cf {p}V"
    return _cover_params(a, ifam, cfam, v, p) + [
        f"def {p}CovWP : {p}A -> U0 := cwWP {ps}",
        f"def {p}covToWP : (a0 : {p}A) -> Cover {ps} a0 -> {p}CovWP a0 := "
        f"coverToWP {ps}",
        f"def {p}wpToCov : (a0 : {p}A) -> {p}CovWP a0 -> Cover {ps} a0 := "
        f"wpToCover {ps}",
    ]


def build_wp_as_cover(i: str, n: str, r: str, prefix: str = "i") -> list[str]:
    p = prefix
    ps = f"{p}I {p}N {p}R"
    return _wp_params(i, n, r, p) + [
        f"def {p}WPCov : {p}I -> U0 := wcCover {ps}",
        f"def {p}wpFwd : (i0 : {p}I) -> WP {ps} i0 -> {p}WPCov i0 := "
        f"wpAsCoverFwd {ps}",
        f"def {p}wpBwd : (i0 : {p}I) -> {p}WPCov i0 -> WP {ps} i0 := "
        f"wpAsCoverBwd {ps}",
        f"def {p}wpComp : (M : (i0 : {p}I) -> {p}WPCov i0 -> U0) -> "
        f"(c : (i0 : {p}I) -> (n0 : {p}N i0) -> "
        f"(f : (j : {p}I) -> {p}R i0 n0 j -> {p}WPCov j) -> "
        f"(h : (j : {p}I) -> (r0 : {p}R i0 n0 j) -> M j (f j r0)) -> "
        f"M i0 (wcInd {ps} i0 n0 f)) -> "
        f"(i0 : {p}I) -> (n0 : {p}N i0) -> "
        f"(f : (j : {p}I) -> {p}R i0 n0 j -> {p}WPCov j) -> "
        f"Id (M i0 (wcInd {ps} i0 n0 f)) "
        f"(wcElim {ps} M c i0 (wcInd {ps} i0 n0 f)) "
        f"(c i0 n0 f (fun j => fun r0 => wcElim {ps} M c j (f j r0))) := "
        f"wcCompCheck {ps}",
    ]


def build_canonical(a: str, ifam: str, cfam: str, v: str, prefix: str = "i",
                    mode: str = "rules") -> list[str]:
    p = prefix
    ps = f"{p}A {p}If {p}Cf {p}V"
    decls = _cover_params(a, ifam, cfam, v, p) + [
        f"def {p}Canon : (a0 : {p}A) -> cwWP {ps} a0 -> U0 := Canonical {ps}",
        f"def {p}CovC : {p}A -> U0 := CoverC {ps}",
        f"def {p}rf : (a0 : {p}A) -> (r : {p}V a0) -> {p}CovC a0 := rfC {ps}",
        f"def {p}tr : (a0 : {p}A) -> (i0 : {p}If a0) -> "
        f"((b : {p}A) -> {p}Cf a0 i0 b -> {p}CovC b) -> {p}CovC a0 := trC {ps}",
    ]
    if mode == "rules":
        decls.append(
            f"def {p}covElim : (M : (a0 : {p}A) -> {p}CovC a0 -> U0) -> "
            f"(q1 : (a0 : {p}A) -> (r : {p}V a0) -> M a0 ({p}rf a0 r)) -> "
            f"(q2 : (a0 : {p}A) -> (i0 : {p}If a0) -> "
            f"(r : (b : {p}A) -> {p}Cf a0 i0 b -> {p}CovC b) -> "
            f"(h : (b : {p}A) -> (s : {p}Cf a0 i0 b) -> M b (r b s)) -> "
            f"M a0 ({p}tr a0 i0 r)) -> "
            f"(a0 : {p}A) -> (pz : {p}CovC a0) -> M a0 pz := elimC {ps}"
        )
    else:
        decls.append(
            f"def {p}covIso : (a0 : {p}A) -> "
            f"Iso (Cover {ps} a0) ({p}CovC a0) := isoCover {ps}"
        )
    return decls


def build_wp_via_dw(i: str, n: str, r: str, prefix: str = "i", mode: str = "rules") -> list[str]:
    p = prefix
    ps = f"{p}I {p}N {p}R"
    decls = _wp_params(i, n, r, p) + [
        f"def {p}WPq : {p}I -> U0 := WPq {ps}",
        f"def {p}indQ : (i0 : {p}I) -> (n0 : {p}N i0) -> "
        f"((j : {p}I) -> {p}R i0 n0 j -> {p}WPq j) -> {p}WPq i0 := indQ {ps}",
    ]
    if mode == "rules":
        decls.append(
            f"def {p}elimQ : (M : (i0 : {p}I) -> {p}WPq i0 -> U0) -> "
            f"(c : (i0 : {p}I) -> (n0 : {p}N i0) -> "
            f"(f : (j : {p}I) -> {p}R i0 n0 j -> {p}WPq j) -> "
            f"(h : (j : {p}I) -> (r0 : {p}R i0 n0 j) -> M j (f j r0)) -> "
            f"M i0 ({p}indQ i0 n0 f)) -> "
            f"(i0 : {p}I) -> (w : {p}WPq i0) -> M i0 w := elimWPq {ps}"
        )
    else:
        decls.append(
            f"def {p}wpqIso : (i0 : {p}I) -> Iso (WP {ps} i0) ({p}WPq i0) := "
            f"isoWPq {ps}"
        )
    return decls


def build_w_via_wp(a: str, b: str, prefix: str = "i", mode: str = "rules") -> list[str]:
    p = prefix
    ps = f"{p}A {p}B"
    decls = _w_params(a, b, p) + [
        f"def {p}Wq : U0 := Wq {ps}",
        f"def {p}supQ : (a0 : {p}A) -> ({p}B a0 -> {p}Wq) -> {p}Wq := supQ {ps}",
    ]
    if mode == "rules":
        decls.append(
            f"def {p}elimWq : (M : {p}Wq -> U0) -> "
            f"(d : (a0 : {p}A) -> (f : {p}B a0 -> {p}Wq) -> "
            f"(h : (b0 : {p}B a0) -> M (f b0)) -> M ({p}supQ a0 f)) -> "
            f"(w : {p}Wq) -> M w := elimWq {ps}"
        )
    else:
        decls.append(
            f"def {p}wqIso : Iso (W {ps}) ({p}Wq) := isoWq {ps}"
        )
    return decls


def build_representation_lemma(i: str, n: str, r: str, prefix: str = "i") -> list[str]:
    p = prefix
    ps = f"{p}I {p}N {p}R"
    return _wp_params(i, n, r, p) + [
        f"def {p}reprFwd : (i0 : {p}I) -> WP {ps} i0 -> reprStatement {ps} i0 := "
        f"reprForward {ps}",
        f"def {p}reprBwd : (i0 : {p}I) -> reprStatement {ps} i0 -> WP {ps} i0 := "
        f"reprBackward {ps}",
    ]
