//! The interval/range dataflow pass: abstract interpretation of function
//! bodies over the [`Interval`] domain, discharging runtime sanitizer
//! checks statically and flagging definitely-out-of-range flows.
//!
//! For every non-test function the pass:
//!
//! 1. evaluates the body big-step over an abstract store (local name →
//!    abstract value), seeding contract knowledge from [`Seeds`];
//! 2. runs loop bodies to a widened fixpoint first, then re-executes them
//!    once under the stable head state with recording enabled — so each
//!    sanitizer site is classified exactly once, under a state that
//!    over-approximates *every* iteration;
//! 3. decomposes each `invariants::assert_*` call into its elementary
//!    checks and classifies each as **proven** (statically dischargeable),
//!    **runtime** (left to the sanitizer) or **violated** (statically
//!    refuted — reported as a diagnostic);
//! 4. checks value sinks with constructor-validated ranges
//!    (`Converter::set_ratio`, `VfLevel::from_index`) for arguments that
//!    are provably outside the reachable range.
//!
//! Soundness direction: every approximation in the AST layer collapses to
//! ⊤, so the pass can misclassify a provable check as "runtime" but never
//! the reverse; "violated" additionally requires the whole abstract value
//! to refute the check.

use std::collections::BTreeMap;

use crate::flow::ast::{self, Arm, BinOp, Expr, Pat, Stmt};
use crate::flow::interval::Interval;
use crate::flow::seeds::Seeds;
use crate::lint::Violation;
use crate::syntax::source::SourceFile;

/// Pass identifier (diagnostics, waiver markers, allowlist entries).
pub const PASS: &str = "range";

/// Classification of one elementary sanitizer check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckStatus {
    /// Statically proven: the runtime check can never fire.
    Proven,
    /// Not statically dischargeable: the runtime sanitizer earns its keep.
    Runtime,
    /// Statically refuted: the check fires on every abstract member.
    Violated,
}

/// One elementary check at a sanitizer site.
#[derive(Debug, Clone)]
pub struct CheckRecord {
    /// Human-readable predicate (`power >= 0`, …).
    pub desc: String,
    /// The classification.
    pub status: CheckStatus,
    /// The abstract value the classification was made under.
    pub value: Interval,
}

/// One sanitizer call site with its decomposed checks.
#[derive(Debug, Clone)]
pub struct SiteRecord {
    /// Repo-relative path of the file.
    pub path: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Which sanitizer (`assert_power`, …).
    pub kind: &'static str,
    /// Elementary checks in decomposition order.
    pub checks: Vec<CheckRecord>,
}

/// `true` for files the range pass scans: crate sources, except the
/// sanitizer implementation itself (its check bodies are the *spec* the
/// pass discharges, not flows into it).
pub fn applies_to(path: &str) -> bool {
    path.starts_with("crates/")
        && path.ends_with(".rs")
        && path != "crates/solarcore/src/invariants.rs"
}

/// Runs the pass over one file: returns every sanitizer site found (with
/// per-check classification) plus the definite violations. Each function
/// body is interpreted on its own, its store seeded from parameter range
/// hints (proptest binders); every call the seeds do not cover is ⊤.
pub fn check(src: &SourceFile, seeds: &Seeds) -> (Vec<SiteRecord>, Vec<Violation>) {
    let mut sites = Vec::new();
    let mut violations = Vec::new();
    for f in ast::parse_fns(src) {
        if f.in_test {
            continue;
        }
        let mut interp = Interp {
            seeds,
            path: src.path.clone(),
            sites: Vec::new(),
            violations: Vec::new(),
            record: true,
        };
        let mut state = State::new();
        for p in &f.params {
            if let (Some(name), Some(r)) = (&p.name, p.range) {
                state.insert(name.clone(), AVal::Num(r));
            }
        }
        interp.exec_body_value(&f.body, state, f.has_ret);
        sites.extend(interp.sites);
        violations.extend(interp.violations);
    }
    (sites, violations)
}

/// Abstract value: a numeric interval or a tuple of abstract values.
/// Everything non-numeric is ⊤ (`Num(Interval::TOP)`).
#[derive(Debug, Clone, PartialEq)]
enum AVal {
    Num(Interval),
    Tuple(Vec<AVal>),
}

impl AVal {
    fn top() -> AVal {
        AVal::Num(Interval::TOP)
    }

    fn num(&self) -> Interval {
        match self {
            AVal::Num(i) => *i,
            AVal::Tuple(_) => Interval::TOP,
        }
    }

    fn join(&self, other: &AVal) -> AVal {
        match (self, other) {
            (AVal::Tuple(a), AVal::Tuple(b)) if a.len() == b.len() => {
                AVal::Tuple(a.iter().zip(b).map(|(x, y)| x.join(y)).collect())
            }
            _ => AVal::Num(self.num().join(&other.num())),
        }
    }

    fn widen(&self, old: &AVal) -> AVal {
        match (self, old) {
            (AVal::Tuple(a), AVal::Tuple(b)) if a.len() == b.len() => {
                AVal::Tuple(a.iter().zip(b).map(|(x, y)| x.widen(y)).collect())
            }
            _ => AVal::Num(self.num().widen(&old.num())),
        }
    }
}

/// Abstract store: local name → abstract value; a missing key is ⊤.
type State = BTreeMap<String, AVal>;

fn join_states(a: &State, b: &State) -> State {
    let mut out = State::new();
    for (k, va) in a {
        if let Some(vb) = b.get(k) {
            out.insert(k.clone(), va.join(vb));
        }
    }
    out
}

fn widen_state(new: &State, old: &State) -> State {
    let mut out = State::new();
    for (k, vo) in old {
        if let Some(vn) = new.get(k) {
            out.insert(k.clone(), vn.widen(vo));
        }
    }
    out
}

/// Join an optional fall-through state with another state.
fn join_opt(a: Option<State>, b: State) -> Option<State> {
    Some(match a {
        None => b,
        Some(a) => join_states(&a, &b),
    })
}

/// Control-flow outcome of a statement sequence.
struct Outcome {
    /// State on normal fall-through (`None` when the sequence diverges).
    fall: Option<State>,
    /// States flowing to the innermost enclosing loop's exit.
    breaks: Vec<State>,
    /// States flowing back to the innermost enclosing loop's head.
    continues: Vec<State>,
    /// Names `let`-declared at this sequence's top level (for scoping).
    declared: Vec<String>,
}

struct Interp<'a> {
    seeds: &'a Seeds,
    path: String,
    sites: Vec<SiteRecord>,
    violations: Vec<Violation>,
    /// Recording is off during loop-fixpoint iterations so each site is
    /// classified exactly once, under the stable head state.
    record: bool,
}

impl<'a> Interp<'a> {
    // ----- statements -------------------------------------------------

    /// Executes a function body. When `want_value` (a `-> T` signature),
    /// the trailing statement is the function's value: a trailing `if` or
    /// bare block recurses per branch (with condition refinement), so the
    /// sanitizer sites in each arm see that arm's refined state.
    fn exec_body_value(&mut self, stmts: &[Stmt], state: State, want_value: bool) {
        if !want_value {
            self.exec_stmts(stmts, state);
            return;
        }
        let Some((last, rest)) = stmts.split_last() else {
            return;
        };
        match last {
            Stmt::Expr(e) => {
                if let Some(mut s) = self.exec_stmts(rest, state).fall {
                    self.eval(e, &mut s);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if let Some(mut s) = self.exec_stmts(rest, state).fall {
                    self.eval(cond, &mut s);
                    let mut then_state = s.clone();
                    self.refine(cond, true, &mut then_state);
                    let mut else_state = s;
                    self.refine(cond, false, &mut else_state);
                    self.exec_body_value(then_body, then_state, true);
                    self.exec_body_value(else_body, else_state, true);
                }
            }
            Stmt::Block(body) => {
                if let Some(s) = self.exec_stmts(rest, state).fall {
                    self.exec_body_value(body, s, true);
                }
            }
            _ => {
                self.exec_stmts(stmts, state);
            }
        }
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], state: State) -> Outcome {
        let mut out = Outcome {
            fall: Some(state),
            breaks: Vec::new(),
            continues: Vec::new(),
            declared: Vec::new(),
        };
        for stmt in stmts {
            let Some(state) = out.fall.take() else {
                break; // unreachable code after a jump
            };
            self.exec_stmt(stmt, state, &mut out);
        }
        out
    }

    /// Executes `stmts` as a scope: bindings declared inside do not leak,
    /// and do not clobber same-named outer locals.
    fn exec_scoped(&mut self, stmts: &[Stmt], state: &State) -> Outcome {
        let snapshot = state.clone();
        let mut out = self.exec_stmts(stmts, state.clone());
        let restore = |s: &mut State| {
            for name in &out.declared {
                match snapshot.get(name) {
                    Some(v) => {
                        s.insert(name.clone(), v.clone());
                    }
                    None => {
                        s.remove(name);
                    }
                }
            }
        };
        if let Some(s) = out.fall.as_mut() {
            restore(s);
        }
        for s in out.breaks.iter_mut().chain(out.continues.iter_mut()) {
            restore(s);
        }
        out
    }

    fn exec_stmt(&mut self, stmt: &Stmt, mut state: State, out: &mut Outcome) {
        match stmt {
            Stmt::Let { pat, init } => {
                let v = match init {
                    Some(e) => self.eval(e, &mut state),
                    None => AVal::top(),
                };
                self.bind_pat(pat, &v, &mut state, &mut out.declared);
                out.fall = Some(state);
            }
            Stmt::LetElse {
                pat,
                init,
                else_body,
            } => {
                let v = self.eval(init, &mut state);
                // The else block diverges; its breaks/continues target the
                // enclosing loop, so they propagate.
                let else_out = self.exec_scoped(else_body, &state);
                out.breaks.extend(else_out.breaks);
                out.continues.extend(else_out.continues);
                self.bind_pat(pat, &v, &mut state, &mut out.declared);
                out.fall = Some(state);
            }
            Stmt::Assign { name, op, value } => {
                let rhs = self.eval(value, &mut state).num();
                let new = match op {
                    None => rhs,
                    Some(BinOp::Add) => state.get(name).map_or(Interval::TOP, AVal::num).add(&rhs),
                    Some(BinOp::Sub) => state.get(name).map_or(Interval::TOP, AVal::num).sub(&rhs),
                    Some(BinOp::Mul) => state.get(name).map_or(Interval::TOP, AVal::num).mul(&rhs),
                    Some(BinOp::Div) => state.get(name).map_or(Interval::TOP, AVal::num).div(&rhs),
                    Some(_) => Interval::TOP,
                };
                state.insert(name.clone(), AVal::Num(new));
                out.fall = Some(state);
            }
            Stmt::Expr(e) => {
                self.eval(e, &mut state);
                out.fall = Some(state);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.eval(cond, &mut state);
                let mut then_state = state.clone();
                self.refine(cond, true, &mut then_state);
                let mut else_state = state;
                self.refine(cond, false, &mut else_state);
                let then_out = self.exec_scoped(then_body, &then_state);
                let else_out = self.exec_scoped(else_body, &else_state);
                out.breaks.extend(then_out.breaks);
                out.breaks.extend(else_out.breaks);
                out.continues.extend(then_out.continues);
                out.continues.extend(else_out.continues);
                out.fall = match (then_out.fall, else_out.fall) {
                    (Some(a), Some(b)) => Some(join_states(&a, &b)),
                    (Some(a), None) => Some(a),
                    (None, Some(b)) => Some(b),
                    (None, None) => None,
                };
            }
            Stmt::While { cond, body } => {
                let (head, breaks) = self.loop_fixpoint(&state, |interp, head| {
                    let mut s = head.clone();
                    interp.eval(cond, &mut s);
                    interp.refine(cond, true, &mut s);
                    interp.exec_scoped(body, &s)
                });
                let mut exit = head.clone();
                self.refine(cond, false, &mut exit);
                let exit = breaks.iter().fold(exit, |acc, b| join_states(&acc, b));
                out.fall = Some(exit);
            }
            Stmt::Loop { body } => {
                let (head, breaks) =
                    self.loop_fixpoint(&state, |interp, head| interp.exec_scoped(body, head));
                // Exit via collected breaks; with none visible (e.g. hidden
                // in opaque code) fall back to the head state rather than
                // claiming unreachability.
                let exit = match breaks.split_first() {
                    Some((first, rest)) => {
                        rest.iter().fold(first.clone(), |a, b| join_states(&a, b))
                    }
                    None => head,
                };
                out.fall = Some(exit);
            }
            Stmt::For { pat, iter, body } => {
                // The iterated expression is evaluated once, before the
                // loop; its abstract value is the element hull (exact for
                // literal arrays, ⊤ otherwise — scalars are not iterable,
                // so an interval-valued iterator *is* its elements).
                let elem = AVal::Num(self.eval(iter, &mut state).num());
                let (head, breaks) = self.loop_fixpoint(&state, |interp, head| {
                    let mut s = head.clone();
                    let mut scratch = Vec::new();
                    interp.bind_pat(pat, &elem, &mut s, &mut scratch);
                    let mut o = interp.exec_scoped(body, &s);
                    // The binder is per-iteration; drop it from outflows.
                    for st in o
                        .fall
                        .iter_mut()
                        .chain(o.breaks.iter_mut())
                        .chain(o.continues.iter_mut())
                    {
                        for n in &scratch {
                            st.remove(n);
                        }
                    }
                    o
                });
                let exit = breaks.iter().fold(head, |acc, b| join_states(&acc, b));
                out.fall = Some(exit);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    self.eval(e, &mut state);
                }
                out.fall = None;
            }
            Stmt::Break => {
                out.breaks.push(state);
                out.fall = None;
            }
            Stmt::Continue => {
                out.continues.push(state);
                out.fall = None;
            }
            Stmt::Block(body) => {
                let o = self.exec_scoped(body, &state);
                out.breaks.extend(o.breaks);
                out.continues.extend(o.continues);
                out.fall = o.fall;
            }
            Stmt::Havoc(pat) => {
                let mut scratch = Vec::new();
                self.bind_pat(pat, &AVal::top(), &mut state, &mut scratch);
                out.declared.extend(scratch);
                out.fall = Some(state);
            }
            Stmt::Opaque { kills } => {
                for k in kills {
                    state.remove(k);
                }
                out.fall = Some(state);
            }
        }
    }

    /// Runs `body` (entry-state → outcome) to a widened fixpoint over the
    /// loop head, recording suppressed; then one recording pass under the
    /// stable head. Returns the stable head state and the break states of
    /// the recording pass.
    fn loop_fixpoint(
        &mut self,
        entry: &State,
        mut body: impl FnMut(&mut Self, &State) -> Outcome,
    ) -> (State, Vec<State>) {
        const MAX_ITERS: usize = 64;
        let saved_record = self.record;
        self.record = false;
        let mut head = entry.clone();
        for i in 0..=MAX_ITERS {
            if i == MAX_ITERS {
                // Safety net: no stable head in time — go to ⊤.
                head = State::new();
                break;
            }
            let o = body(self, &head);
            let mut next = entry.clone();
            if let Some(f) = o.fall {
                next = join_states(&next, &f);
            }
            for c in &o.continues {
                next = join_states(&next, c);
            }
            let widened = widen_state(&next, &head);
            if widened == head {
                break;
            }
            head = widened;
        }
        self.record = saved_record;
        let breaks = if self.record {
            body(self, &head).breaks
        } else {
            // Inside an outer fixpoint: a cheap non-recording pass still
            // collects break states for the exit join.
            let saved = self.record;
            self.record = false;
            let b = body(self, &head).breaks;
            self.record = saved;
            b
        };
        (head, breaks)
    }

    // ----- patterns ---------------------------------------------------

    fn bind_pat(&self, pat: &Pat, val: &AVal, state: &mut State, declared: &mut Vec<String>) {
        match pat {
            Pat::Bind(n) => {
                state.insert(n.clone(), val.clone());
                declared.push(n.clone());
            }
            Pat::Tuple(ps) => match val {
                AVal::Tuple(vs) if vs.len() == ps.len() => {
                    for (p, v) in ps.iter().zip(vs) {
                        self.bind_pat(p, v, state, declared);
                    }
                }
                _ => {
                    for p in ps {
                        self.bind_pat(p, &AVal::top(), state, declared);
                    }
                }
            },
            Pat::Variant { path, subs } => {
                let last = path.last().map(String::as_str).unwrap_or("");
                if subs.len() == 1 {
                    if let Some(seed) = self.seeds.payload_summary(last) {
                        self.bind_pat(&subs[0], &AVal::Num(seed), state, declared);
                        return;
                    }
                    if last == "Some" || last == "Ok" {
                        // Transparent wrappers: the scrutinee's abstract
                        // value *is* the payload's.
                        self.bind_pat(&subs[0], val, state, declared);
                        return;
                    }
                }
                for p in subs {
                    self.bind_pat(p, &AVal::top(), state, declared);
                }
            }
            Pat::Or(ps) => {
                // Alternatives must bind the same names; ⊤ is their join's
                // over-approximation.
                for p in ps {
                    self.bind_pat(p, &AVal::top(), state, declared);
                }
            }
            Pat::Wild | Pat::Opaque => {}
        }
    }

    // ----- expressions ------------------------------------------------

    fn eval(&mut self, expr: &Expr, state: &mut State) -> AVal {
        match expr {
            Expr::Num(v) => AVal::Num(Interval::constant(*v)),
            Expr::Path(segs) => {
                if segs.len() == 1 {
                    if let Some(v) = state.get(&segs[0]) {
                        return v.clone();
                    }
                }
                match self.seeds.const_value(segs) {
                    Some(i) => AVal::Num(i),
                    None => AVal::top(),
                }
            }
            Expr::Neg(e) => AVal::Num(self.eval(e, state).num().neg()),
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs, state).num();
                let b = self.eval(rhs, state).num();
                let r = match op {
                    BinOp::Add => a.add(&b),
                    BinOp::Sub => a.sub(&b),
                    BinOp::Mul => a.mul(&b),
                    BinOp::Div => a.div(&b),
                    BinOp::Cmp(_) | BinOp::And | BinOp::Or | BinOp::Other => Interval::TOP,
                };
                AVal::Num(r)
            }
            Expr::Call { path, args, line } => self.eval_call(path, args, *line, state),
            Expr::Method {
                recv,
                name,
                args,
                line,
            } => self.eval_method(recv, name, args, *line, state),
            Expr::Field { recv, name } => {
                let r = self.eval(recv, state);
                if let AVal::Tuple(vs) = &r {
                    if let Ok(ix) = name.parse::<usize>() {
                        if let Some(v) = vs.get(ix) {
                            return v.clone();
                        }
                    }
                }
                match self.seeds.field_summary(name) {
                    Some(i) => AVal::Num(i),
                    None => AVal::top(),
                }
            }
            Expr::Tuple(es) => AVal::Tuple(es.iter().map(|e| self.eval(e, state)).collect()),
            Expr::If {
                cond,
                then_e,
                else_e,
            } => {
                self.eval(cond, state);
                let mut then_state = state.clone();
                self.refine(cond, true, &mut then_state);
                let v1 = self.eval(then_e, &mut then_state);
                let mut else_state = state.clone();
                self.refine(cond, false, &mut else_state);
                let v2 = match else_e {
                    Some(e) => self.eval(e, &mut else_state),
                    None => AVal::top(),
                };
                *state = join_states(&then_state, &else_state);
                v1.join(&v2)
            }
            Expr::Match { scrutinee, arms } => self.eval_match(scrutinee, arms, state),
            Expr::Block { stmts, value } => {
                let snapshot = state.clone();
                let out = self.exec_stmts(stmts, state.clone());
                let mut s = out.fall;
                // Breaks/continues inside value-position blocks are joined
                // into the fall-through conservatively (the AST does not
                // model value-position jumps).
                for b in out.breaks.iter().chain(out.continues.iter()) {
                    s = join_opt(s, b.clone());
                }
                let Some(mut s) = s else {
                    return AVal::top(); // diverging block
                };
                let v = match value {
                    Some(e) => self.eval(e, &mut s),
                    None => AVal::top(),
                };
                for name in &out.declared {
                    match snapshot.get(name) {
                        Some(old) => {
                            s.insert(name.clone(), old.clone());
                        }
                        None => {
                            s.remove(name);
                        }
                    }
                }
                *state = s;
                v
            }
            Expr::Try(e) | Expr::Ref { expr: e, .. } => self.eval(e, state),
            Expr::Closure { params, body, .. } => {
                // The body is evaluated under the *current* state so sites
                // and call events inside see the captured knowledge; the
                // closure itself runs zero or more times at unknown points,
                // so afterwards only bindings the body provably left
                // untouched keep their value — anything it changed or
                // killed (and any shadowed param name) goes to ⊤.
                let snapshot = state.clone();
                let mut scratch = Vec::new();
                for p in params {
                    self.bind_pat(p, &AVal::top(), state, &mut scratch);
                }
                self.eval(body, state);
                let mut kept = State::new();
                for (k, old) in &snapshot {
                    if state.get(k) == Some(old) {
                        kept.insert(k.clone(), old.clone());
                    }
                }
                *state = kept;
                AVal::top()
            }
            Expr::Array(es) => {
                // An array's abstract value is its element hull: iteration
                // reads elements, never the aggregate.
                let mut hull: Option<Interval> = None;
                for e in es {
                    let v = self.eval(e, state).num();
                    hull = Some(match hull {
                        None => v,
                        Some(h) => h.join(&v),
                    });
                }
                AVal::Num(hull.unwrap_or(Interval::TOP))
            }
            Expr::Cast(inner) => {
                // Evaluate for effects and call sites; the cast's value is
                // ⊤ (truncation/saturation is not modelled).
                self.eval(inner, state);
                AVal::top()
            }
            Expr::Opaque => AVal::top(),
        }
    }

    fn eval_match(&mut self, scrutinee: &Expr, arms: &[Arm], state: &mut State) -> AVal {
        let sval = self.eval(scrutinee, state);
        let mut joined_state: Option<State> = None;
        let mut joined_val: Option<AVal> = None;
        for arm in arms {
            let mut arm_state = state.clone();
            let mut declared = Vec::new();
            self.bind_pat(&arm.pat, &sval, &mut arm_state, &mut declared);
            if let Some(g) = &arm.guard {
                self.eval(g, &mut arm_state);
                self.refine(g, true, &mut arm_state);
            }
            let v = self.eval(&arm.body, &mut arm_state);
            for name in &declared {
                match state.get(name) {
                    Some(old) => {
                        arm_state.insert(name.clone(), old.clone());
                    }
                    None => {
                        arm_state.remove(name);
                    }
                }
            }
            joined_state = join_opt(joined_state, arm_state);
            joined_val = Some(match joined_val {
                None => v,
                Some(j) => j.join(&v),
            });
        }
        if let Some(s) = joined_state {
            *state = s;
        }
        joined_val.unwrap_or_else(AVal::top)
    }

    fn eval_call(
        &mut self,
        path: &[String],
        args: &[Expr],
        line: usize,
        state: &mut State,
    ) -> AVal {
        let vals: Vec<AVal> = args.iter().map(|a| self.eval(a, state)).collect();
        self.apply_ref_mut_kills(args, state);
        let last = path.last().map(String::as_str).unwrap_or("");
        match last {
            "assert_power" | "assert_budget" | "assert_conversion" | "assert_bus_voltage" => {
                // Re-match to a `&'static str` site kind.
                let kind = match last {
                    "assert_power" => "assert_power",
                    "assert_budget" => "assert_budget",
                    "assert_conversion" => "assert_conversion",
                    _ => "assert_bus_voltage",
                };
                if self.record {
                    self.record_site(kind, line, &vals);
                }
                AVal::top()
            }
            "from_index" => {
                if self.record {
                    let ix = vals.first().map_or(Interval::TOP, AVal::num);
                    let count = self.seeds.vf_level_count();
                    if ix.refutes_le(count - 1.0) || ix.refutes_ge(0.0) {
                        self.violations.push(Violation {
                            pass: PASS,
                            path: self.path.clone(),
                            line,
                            message: format!(
                                "V/F level index in {ix} is provably outside the \
                                 ladder range [0, {}]",
                                count - 1.0
                            ),
                        });
                    }
                }
                AVal::top()
            }
            "new" if self.seeds.transparent_constructor(path) && vals.len() == 1 => {
                vals.into_iter().next().unwrap_or_else(AVal::top)
            }
            "Some" | "Ok" | "Err" if vals.len() == 1 => {
                vals.into_iter().next().unwrap_or_else(AVal::top)
            }
            _ => {
                if let Some(i) = self.seeds.const_value(path) {
                    return AVal::Num(i); // e.g. a const fn mistaken for a call
                }
                AVal::top()
            }
        }
    }

    fn eval_method(
        &mut self,
        recv: &Expr,
        name: &str,
        args: &[Expr],
        line: usize,
        state: &mut State,
    ) -> AVal {
        let rval = self.eval(recv, state);
        let avals: Vec<AVal> = args.iter().map(|a| self.eval(a, state)).collect();
        self.apply_ref_mut_kills(args, state);
        let r = rval.num();
        let result = match (name, avals.len()) {
            ("get", 0) => Some(rval.clone()),
            ("min", 1) => Some(AVal::Num(r.min(&avals[0].num()))),
            ("max", 1) => Some(AVal::Num(r.max(&avals[0].num()))),
            ("abs", 0) => Some(AVal::Num(r.abs())),
            ("clamp", 2) => {
                // Only constant clamp bounds are modelled.
                match (avals[0].num().as_const(), avals[1].num().as_const()) {
                    (Some(l), Some(h)) if l <= h => Some(AVal::Num(r.clamp_const(l, h))),
                    _ => Some(AVal::top()),
                }
            }
            ("is_finite" | "is_nan" | "is_sign_negative", 0) => Some(AVal::top()),
            // Iterator adaptors and container reads take `self`/`&self`:
            // they never mutate through the receiver *name*, so they must
            // not kill a tracked local (`for m in mixes.iter()` keeps
            // `mixes`). Their values are not modelled.
            (
                "iter" | "into_iter" | "enumerate" | "rev" | "zip" | "chain" | "copied" | "cloned"
                | "map" | "filter" | "filter_map" | "flat_map" | "flatten" | "collect" | "sum"
                | "windows" | "chunks" | "len" | "is_empty" | "to_vec" | "contains" | "first"
                | "last",
                _,
            ) => Some(AVal::top()),
            ("ratio_range", 0) => Some(AVal::Tuple(vec![
                AVal::Num(self.seeds.ratio_bounds()),
                AVal::Num(self.seeds.ratio_bounds()),
            ])),
            ("set_ratio", 1) => {
                if self.record {
                    let k = avals[0].num();
                    let bounds = self.seeds.ratio_bounds();
                    if k.refutes_le(bounds.hi) || k.refutes_ge(bounds.lo) {
                        self.violations.push(Violation {
                            pass: PASS,
                            path: self.path.clone(),
                            line,
                            message: format!(
                                "transfer ratio in {k} is provably outside the \
                                 reachable range [{}, {}]",
                                bounds.lo, bounds.hi
                            ),
                        });
                    }
                }
                None
            }
            _ => self.seeds.method_summary(name).map(AVal::Num),
        };
        match result {
            Some(v) => v,
            None => {
                // Unknown method: it may mutate through the receiver, so
                // the receiver local is forgotten.
                if let Expr::Path(segs) = recv {
                    if segs.len() == 1 {
                        state.remove(&segs[0]);
                    }
                }
                AVal::top()
            }
        }
    }

    /// Invalidates locals passed by `&mut` to a call.
    fn apply_ref_mut_kills(&self, args: &[Expr], state: &mut State) {
        for a in args {
            if let Expr::Ref {
                mutable: true,
                expr,
            } = a
            {
                if let Expr::Path(segs) = expr.as_ref() {
                    if segs.len() == 1 {
                        state.remove(&segs[0]);
                    }
                }
            }
        }
    }

    // ----- condition refinement ----------------------------------------

    /// Narrows `state` under the assumption that `cond` evaluated to
    /// `polarity`. Bound moves never mint finiteness (a true `x > 0` still
    /// admits `+∞`), but an observed-true comparison does exclude NaN —
    /// NaN fails every IEEE comparison except `!=`. The negated direction
    /// must not: `!(x >= 0)` admits both `x < 0` and NaN.
    fn refine(&mut self, cond: &Expr, polarity: bool, state: &mut State) {
        match cond {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } if polarity => {
                self.refine(lhs, true, state);
                self.refine(rhs, true, state);
            }
            Expr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
            } if !polarity => {
                self.refine(lhs, false, state);
                self.refine(rhs, false, state);
            }
            // `!inner` is encoded as Binary(Other, Path(["!"]), inner).
            Expr::Binary {
                op: BinOp::Other,
                lhs,
                rhs,
            } if matches!(lhs.as_ref(), Expr::Path(s) if s.len() == 1 && s[0] == "!") => {
                self.refine(rhs, !polarity, state);
            }
            Expr::Binary {
                op: BinOp::Cmp(op),
                lhs,
                rhs,
            } => {
                self.refine_cmp(lhs, op, rhs, polarity, state);
                // Mirrored: `c < x` refines x with the flipped operator.
                let flipped = match *op {
                    "<" => ">",
                    "<=" => ">=",
                    ">" => "<",
                    ">=" => "<=",
                    other => other,
                };
                self.refine_cmp(rhs, flipped, lhs, polarity, state);
            }
            Expr::Method {
                recv, name, args, ..
            } if name == "is_finite" && args.is_empty() && polarity => {
                if let Some(target) = refine_target(recv) {
                    let cur = state.get(&target).map_or(Interval::TOP, |v| v.num());
                    state.insert(target, AVal::Num(cur.refine_finite()));
                }
            }
            _ => {}
        }
    }

    /// Refines the target of `lhs` under `lhs <op> rhs == polarity`.
    fn refine_cmp(&mut self, lhs: &Expr, op: &str, rhs: &Expr, polarity: bool, state: &mut State) {
        let Some(target) = refine_target(lhs) else {
            return;
        };
        let mut scratch = state.clone();
        let bound = self.eval(rhs, &mut scratch).num();
        let cur = state.get(&target).map_or(Interval::TOP, |v| v.num());
        let mut refined = match (op, polarity) {
            ("<", true) if bound.hi.is_finite() => cur.refine_lt(bound.hi),
            ("<=", true) if bound.hi.is_finite() => cur.refine_le(bound.hi),
            (">", true) if bound.lo.is_finite() => cur.refine_gt(bound.lo),
            (">=", true) if bound.lo.is_finite() => cur.refine_ge(bound.lo),
            ("<", false) if bound.lo.is_finite() => cur.refine_ge(bound.lo),
            ("<=", false) if bound.lo.is_finite() => cur.refine_gt(bound.lo),
            (">", false) if bound.hi.is_finite() => cur.refine_le(bound.hi),
            (">=", false) if bound.hi.is_finite() => cur.refine_lt(bound.hi),
            ("==", true) | ("!=", false) => match bound.as_const() {
                Some(c) => Interval::constant(c),
                None => cur,
            },
            _ => cur,
        };
        // A comparison observed *true* implies the operand was numeric
        // (NaN fails `<`, `<=`, `>`, `>=`, `==`); an observed-false `!=`
        // is an observed-true `==`. Negated orderings keep the NaN flag:
        // `!(x >= 0)` is satisfied by NaN.
        if (polarity && op != "!=") || (!polarity && op == "!=") {
            refined = refined.refine_not_nan();
        }
        state.insert(target, AVal::Num(refined));
    }

    // ----- sanitizer site classification -------------------------------

    fn record_site(&mut self, kind: &'static str, line: usize, args: &[AVal]) {
        let arg = |i: usize| args.get(i).map_or(Interval::TOP, AVal::num);
        let slack = self.seeds.power_slack();
        // Argument 0 is the stage label (a masked string literal).
        let checks = match kind {
            "assert_power" => power_checks("power", arg(1)),
            "assert_budget" => {
                let drawn = arg(1);
                let budget = arg(2);
                let mut c = power_checks("drawn", drawn);
                c.extend(power_checks("budget", budget));
                c.push(relational_check(
                    format!("drawn <= budget + {slack} W slack"),
                    drawn,
                    budget,
                    slack,
                ));
                c
            }
            "assert_conversion" => {
                let input = arg(1);
                let output = arg(2);
                let eff = arg(3);
                let mut c = vec![
                    CheckRecord {
                        desc: "efficiency > 0".to_owned(),
                        status: if eff.proves_gt(0.0) {
                            CheckStatus::Proven
                        } else if eff.hi <= 0.0 {
                            CheckStatus::Violated
                        } else {
                            CheckStatus::Runtime
                        },
                        value: eff,
                    },
                    CheckRecord {
                        desc: "efficiency <= 1".to_owned(),
                        status: if eff.proves_le(1.0) {
                            CheckStatus::Proven
                        } else if eff.lo > 1.0 {
                            CheckStatus::Violated
                        } else {
                            CheckStatus::Runtime
                        },
                        value: eff,
                    },
                ];
                c.extend(power_checks("input", input));
                c.extend(power_checks("output", output));
                let diff = output.sub(&eff.mul(&input)).abs();
                c.push(CheckRecord {
                    desc: format!("|output - efficiency*input| <= {slack} W"),
                    status: if diff.proves_le(slack) {
                        CheckStatus::Proven
                    } else if diff.lo > slack {
                        // All non-NaN diffs exceed the slack, and a NaN
                        // diff fails `<= slack` too.
                        CheckStatus::Violated
                    } else {
                        CheckStatus::Runtime
                    },
                    value: diff,
                });
                c
            }
            "assert_bus_voltage" => {
                let v = arg(1);
                let ceiling = arg(2);
                let mut c = vec![
                    CheckRecord {
                        desc: "bus voltage is finite".to_owned(),
                        status: finiteness_status(v),
                        value: v,
                    },
                    CheckRecord {
                        desc: "bus voltage >= 0".to_owned(),
                        status: ge_status(v, 0.0),
                        value: v,
                    },
                ];
                c.push(relational_check(
                    "bus voltage <= ceiling".to_owned(),
                    v,
                    ceiling,
                    1e-9,
                ));
                c
            }
            _ => Vec::new(),
        };
        for check in &checks {
            if check.status == CheckStatus::Violated {
                self.violations.push(Violation {
                    pass: PASS,
                    path: self.path.clone(),
                    line,
                    message: format!(
                        "{kind}: check `{}` is statically violated (value in {})",
                        check.desc, check.value
                    ),
                });
            }
        }
        self.sites.push(SiteRecord {
            path: self.path.clone(),
            line,
            kind,
            checks,
        });
    }
}

/// The two elementary checks of `assert_power` over one operand.
fn power_checks(label: &str, iv: Interval) -> Vec<CheckRecord> {
    vec![
        CheckRecord {
            desc: format!("{label} is finite"),
            status: finiteness_status(iv),
            value: iv,
        },
        CheckRecord {
            desc: format!("{label} >= 0"),
            status: ge_status(iv, 0.0),
            value: iv,
        },
    ]
}

fn finiteness_status(iv: Interval) -> CheckStatus {
    if iv.proves_finite() {
        CheckStatus::Proven
    } else if iv.lo == f64::INFINITY || iv.hi == f64::NEG_INFINITY {
        // Pinned to an infinity: definitely non-finite. (A maybe-NaN value
        // is merely unproven.)
        CheckStatus::Violated
    } else {
        CheckStatus::Runtime
    }
}

fn ge_status(iv: Interval, c: f64) -> CheckStatus {
    if iv.proves_ge(c) {
        CheckStatus::Proven
    } else if iv.refutes_ge(c) {
        // All non-NaN members are below `c`, and NaN fails `>=` too.
        CheckStatus::Violated
    } else {
        CheckStatus::Runtime
    }
}

/// Classifies `a <= b + slack`.
fn relational_check(desc: String, a: Interval, b: Interval, slack: f64) -> CheckRecord {
    // `a.hi <= b.lo + slack` can only hold for finite `a.hi`, so a
    // possible `+∞` in `a` never slips through; NaN needs its own check.
    let status = if !a.nan && !b.nan && a.hi <= b.lo + slack {
        CheckStatus::Proven
    } else if a.lo > b.hi + slack {
        // Every non-NaN pair violates, and NaN operands fail `<=` anyway.
        CheckStatus::Violated
    } else {
        CheckStatus::Runtime
    };
    CheckRecord {
        desc,
        status,
        value: a,
    }
}

/// The local a comparison/`is_finite` refines, looking through the
/// transparent `.get()` newtype unwrap.
fn refine_target(e: &Expr) -> Option<String> {
    match e {
        Expr::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
        Expr::Method {
            recv, name, args, ..
        } if name == "get" && args.is_empty() => refine_target(recv),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_src(text: &str) -> (Vec<SiteRecord>, Vec<Violation>) {
        let src = SourceFile::parse("crates/x/src/lib.rs", text);
        let seeds = Seeds::for_tests();
        check(&src, &seeds)
    }

    fn statuses(sites: &[SiteRecord]) -> Vec<CheckStatus> {
        sites
            .iter()
            .flat_map(|s| s.checks.iter().map(|c| c.status))
            .collect()
    }

    #[test]
    fn literal_power_is_proven() {
        let (sites, v) =
            run_src("fn f() {\n    invariants::assert_power(\"t\", Watts::new(42.0));\n}\n");
        assert_eq!(statuses(&sites), [CheckStatus::Proven; 2]);
        assert!(v.is_empty());
    }

    #[test]
    fn negative_constant_is_violated() {
        let (sites, v) =
            run_src("fn f() {\n    invariants::assert_power(\"t\", Watts::new(-3.0));\n}\n");
        assert_eq!(
            statuses(&sites),
            [CheckStatus::Proven, CheckStatus::Violated]
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("power >= 0"), "{}", v[0].message);
    }

    #[test]
    fn unknown_values_stay_runtime() {
        let (sites, v) = run_src("fn f(p: Watts) {\n    invariants::assert_power(\"t\", p);\n}\n");
        assert_eq!(statuses(&sites), [CheckStatus::Runtime; 2]);
        assert!(v.is_empty());
    }

    #[test]
    fn min_against_seeded_budget_proves_conservation() {
        let (sites, _) = run_src(
            "fn f(chip: Chip, cap: Watts) {\n\
             let budget = cap.get().max(0.0);\n\
             let drawn = budget.min(10.0);\n\
             invariants::assert_budget(\"t\", Watts::new(drawn), Watts::new(budget));\n\
             }\n",
        );
        // budget = max(unknown, 0) is provably non-NaN and >= 0 but may
        // still be +inf (f64::max passes an infinite operand through), so
        // its finiteness stays a runtime check; drawn = min(budget, 10)
        // lands in [0, 10] and proves both its checks. The relational
        // drawn <= budget is not tracked relationally: 3 proven, 2 runtime.
        let st = statuses(&sites);
        assert_eq!(st.len(), 5);
        assert_eq!(
            st.iter().filter(|s| **s == CheckStatus::Proven).count(),
            3,
            "{st:?}"
        );
        assert!(st.iter().all(|s| *s != CheckStatus::Violated), "{st:?}");
    }

    #[test]
    fn branch_refinement_discharges_checks() {
        let (sites, _) = run_src(
            "fn f(x: f64) {\n\
             if x.is_finite() && x >= 0.0 {\n\
             invariants::assert_power(\"t\", Watts::new(x));\n\
             }\n\
             }\n",
        );
        assert_eq!(statuses(&sites), [CheckStatus::Proven; 2]);
    }

    #[test]
    fn widening_keeps_loop_growth_at_runtime() {
        let (sites, v) = run_src(
            "fn f(w: Workload) {\n\
             let mut p = 1.0;\n\
             loop {\n\
             p = p * 2.0;\n\
             invariants::assert_power(\"t\", Watts::new(p));\n\
             if w.done() { break; }\n\
             }\n\
             }\n",
        );
        // p doubles with no numeric bound before the assert, so widening
        // sends hi to +inf (overflow is reachable) and the finiteness check
        // correctly stays a runtime concern — while non-negativity survives
        // widening (inf >= 0) and is proven.
        let st = statuses(&sites);
        assert_eq!(st, [CheckStatus::Runtime, CheckStatus::Proven], "{st:?}");
        assert!(v.is_empty());
    }

    #[test]
    fn break_guard_refinement_proves_finiteness_after_widening() {
        let (sites, _) = run_src(
            "fn f() {\n\
             let mut p = 1.0;\n\
             loop {\n\
             p = p * 2.0;\n\
             if p > 100.0 { break; }\n\
             invariants::assert_power(\"t\", Watts::new(p));\n\
             }\n\
             }\n",
        );
        // The break guard caps the backedge at p <= 100, so the fixpoint
        // narrows back from the widened [?, +inf] and both checks are
        // discharged despite the loop growth.
        assert_eq!(statuses(&sites), [CheckStatus::Proven; 2]);
    }

    #[test]
    fn fixed_power_payload_is_seeded() {
        let (sites, _) = run_src(
            "fn f(policy: Policy) {\n\
             match policy {\n\
             Policy::FixedPower(cap) => {\n\
             invariants::assert_power(\"t\", cap);\n\
             }\n\
             _ => {}\n\
             }\n\
             }\n",
        );
        assert_eq!(statuses(&sites), [CheckStatus::Proven; 2]);
    }

    #[test]
    fn efficiency_contract_proves_conversion_eta_checks() {
        let (sites, _) = run_src(
            "fn f(c: Converter, a: Watts, b: Watts) {\n\
             invariants::assert_conversion(\"t\", a, b, c.efficiency());\n\
             }\n",
        );
        let st = statuses(&sites);
        assert_eq!(st.len(), 7);
        assert_eq!(st[0], CheckStatus::Proven); // eta > 0
        assert_eq!(st[1], CheckStatus::Proven); // eta <= 1
    }

    #[test]
    fn set_ratio_sink_flags_constant_out_of_range() {
        let (_, v) = run_src("fn f(c: Converter) {\n    let _r = c.set_ratio(12.5);\n}\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("transfer ratio"), "{}", v[0].message);
        // In-range constants are quiet.
        let (_, v2) = run_src("fn f(c: Converter) {\n    let _r = c.set_ratio(2.5);\n}\n");
        assert!(v2.is_empty());
    }

    #[test]
    fn from_index_sink_flags_out_of_ladder() {
        let (_, v) = run_src("fn f() {\n    let _l = VfLevel::from_index(9.0);\n}\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("V/F level index"), "{}", v[0].message);
    }

    #[test]
    fn test_functions_are_skipped() {
        let (sites, v) = run_src(
            "#[cfg(test)]\nmod tests {\n\
             fn f() { invariants::assert_power(\"t\", Watts::new(-3.0)); }\n\
             }\n",
        );
        assert!(sites.is_empty());
        assert!(v.is_empty());
    }

    #[test]
    fn shadowed_locals_do_not_leak_out_of_blocks() {
        let (sites, v) = run_src(
            "fn f() {\n\
             let x = -5.0;\n\
             {\n        let x = 1.0;\n        let _y = x;\n    }\n\
             invariants::assert_power(\"t\", Watts::new(x));\n\
             }\n",
        );
        assert_eq!(
            statuses(&sites),
            [CheckStatus::Proven, CheckStatus::Violated]
        );
        assert_eq!(v.len(), 1);
    }
}
