//! Interprocedural lock-order analysis (`lock-order`) and the channel
//! discipline rule (`recv-under-lock`).
//!
//! Every fn in the analyzed file group is walked once, simulating the set
//! of locks held: `x.lock()` (any args, for parking_lot) and zero-arg
//! `.read()`/`.write()` acquire; a `let`-bound guard lives to the end of
//! its block (or an explicit `drop(guard)`), a temporary guard to the end
//! of its statement; closures run inline except arguments to `spawn`,
//! which start a fresh thread and a fresh (empty) held set. Acquiring `b`
//! while holding `a` adds the edge `a → b`; calls to fns whose name is
//! unique in the group propagate their transitive acquisitions (and
//! blocking recvs) to the caller's context, with the call chain kept for
//! the report. The graph is seeded with the declared canonical order
//! ([`crate::policy::LOCK_ORDER`]), so one inverted pair is already a
//! cycle — no second code path needed to prove the race. Any cycle is
//! reported with every acquisition site printed.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::lex;
use crate::parser::{parse_tokens, Body, Event};
use crate::rules::{test_region_start, Allows, Diagnostic};

const RECV_FNS: &[&str] = &["recv", "recv_timeout", "recv_deadline"];
/// Receivers whose `.lock()` is stdio buffering, not a mutex we track.
const IGNORED_LOCKS: &[&str] = &["stdout", "stderr", "stdin"];

/// One lock currently held during the walk.
#[derive(Debug, Clone)]
struct Held {
    lock: String,
    /// Binding name when `let`-bound (guard outlives the statement).
    var: Option<String>,
    line: usize,
}

/// Per-fn facts from the single walk pass.
#[derive(Debug, Default)]
struct FnSum {
    acquires: Vec<(String, usize)>,
    recvs: Vec<(String, usize)>,
    calls: Vec<(String, usize)>,
}

/// A lock-order edge: `from` held while `to` is acquired.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    /// (file index, line) of the acquisition; `None` for declared edges.
    site: Option<(usize, usize)>,
    desc: String,
}

/// A call made while holding locks; resolved interprocedurally later.
#[derive(Debug)]
struct CallEvent {
    callee: String,
    held: Vec<Held>,
    file: usize,
    line: usize,
}

#[derive(Debug, Default)]
struct Pass {
    file: usize,
    fn_name: String,
    edges: Vec<Edge>,
    recv_diags: Vec<(usize, usize, String)>,
    call_events: Vec<CallEvent>,
    sum: FnSum,
}

/// Transitive acquisitions/recvs of one fn, chains included.
#[derive(Debug, Clone, Default)]
struct Totals {
    acquires: Vec<(String, String)>,
    recvs: Vec<String>,
}

/// Runs the analysis over a file group. `files` is `(display, source)`
/// pairs; `declared` is the canonical order, outermost first.
pub fn analyze(files: &[(String, String)], declared: &[&str]) -> Vec<Diagnostic> {
    let mut sums: Vec<(String, usize, usize, FnSum)> = Vec::new(); // name, file, line
    let mut edges: Vec<Edge> = Vec::new();
    let mut recv_diags: Vec<(usize, usize, String)> = Vec::new();
    let mut call_events: Vec<CallEvent> = Vec::new();
    let mut allows: Vec<(Allows, usize)> = Vec::new();

    for (fi, (_display, source)) in files.iter().enumerate() {
        let lexed = lex(source);
        allows.push((Allows::parse(&lexed), test_region_start(&lexed.tokens)));
        let ast = parse_tokens(&lexed.tokens);
        let cutoff = allows[fi].1;
        for f in &ast.fns {
            if f.line >= cutoff {
                continue; // test-only code does not constrain the order
            }
            let mut p = Pass { file: fi, fn_name: f.name.clone(), ..Pass::default() };
            let mut held = Vec::new();
            walk(&f.body, &mut held, &mut p);
            sums.push((f.name.clone(), fi, f.line, p.sum));
            edges.extend(p.edges);
            recv_diags.extend(p.recv_diags);
            call_events.extend(p.call_events);
        }
    }

    // Name resolution: only unambiguous names participate (a name shared
    // by two fns — `send`, `new` — is skipped, never guessed).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, (name, ..)) in sums.iter().enumerate() {
        by_name.entry(name).or_default().push(i);
    }
    let resolve: BTreeMap<&str, usize> =
        by_name.iter().filter(|(_, v)| v.len() == 1).map(|(k, v)| (*k, v[0])).collect();

    let mut memo: Vec<Option<Totals>> = vec![None; sums.len()];
    let mut visiting = vec![false; sums.len()];
    for ev in &call_events {
        let Some(&idx) = resolve.get(ev.callee.as_str()) else { continue };
        let tot = totals(idx, &sums, &resolve, &mut memo, &mut visiting, files);
        let site = format!("{}:{}", files[ev.file].0, ev.line);
        for (lock, chain) in &tot.acquires {
            for h in &ev.held {
                edges.push(Edge {
                    from: h.lock.clone(),
                    to: lock.clone(),
                    site: Some((ev.file, ev.line)),
                    desc: format!(
                        "`{}` held ({}:{}) across the call to {} at {site}, which {chain}",
                        h.lock, files[ev.file].0, h.line, ev.callee
                    ),
                });
            }
        }
        for chain in &tot.recvs {
            let held: Vec<&str> = ev.held.iter().map(|h| h.lock.as_str()).collect();
            recv_diags.push((
                ev.file,
                ev.line,
                format!(
                    "call to {} while holding `{}` reaches a blocking recv ({chain}); a stalled sender wedges every `{}` user",
                    ev.callee,
                    held.join("`, `"),
                    held.join("`/`")
                ),
            ));
        }
    }

    for (i, a) in declared.iter().enumerate() {
        for b in declared.iter().skip(i + 1) {
            edges.push(Edge {
                from: (*a).to_string(),
                to: (*b).to_string(),
                site: None,
                desc: format!(
                    "`{a}` before `{b}` is the declared canonical order (mystore-lint policy.rs LOCK_ORDER)"
                ),
            });
        }
    }

    let mut out = Vec::new();

    // Self-deadlocks first: re-acquiring a lock already held.
    for e in &edges {
        if e.from == e.to {
            if let Some((fi, line)) = e.site {
                out.push(mk(
                    files,
                    fi,
                    line,
                    "lock-order",
                    format!(
                        "lock `{}` acquired while already held (self-deadlock with std Mutex): {}",
                        e.from, e.desc
                    ),
                ));
            }
        }
    }

    // Cycle search: for every code edge a→b, a path b→…→a closes a cycle.
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in &edges {
        if e.from != e.to {
            adj.entry(e.from.as_str()).or_default().push(e);
        }
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for e in &edges {
        let Some((fi, line)) = e.site else { continue };
        if e.from == e.to {
            continue;
        }
        let Some(path) = find_path(&adj, &e.to, &e.from) else { continue };
        let mut nodes: Vec<String> = vec![e.from.clone(), e.to.clone()];
        nodes.extend(path.iter().map(|p| p.to.clone()));
        let mut key = nodes.clone();
        key.sort();
        key.dedup();
        if !seen_cycles.insert(key) {
            continue;
        }
        let mut anchor = (fi, line);
        let mut descs = vec![e.desc.clone()];
        for p in &path {
            if let Some(s) = p.site {
                anchor = anchor.min(s);
            }
            descs.push(p.desc.clone());
        }
        let order = {
            let mut o = vec![e.from.clone(), e.to.clone()];
            o.extend(path.iter().map(|p| p.to.clone()));
            o.join(" -> ")
        };
        out.push(mk(
            files,
            anchor.0,
            anchor.1,
            "lock-order",
            format!(
                "potential deadlock: lock-order cycle {order}. Acquisition paths: {}",
                descs.join("; ")
            ),
        ));
    }

    for (fi, line, msg) in recv_diags {
        out.push(mk(files, fi, line, "recv-under-lock", msg));
    }

    // Per-file allow / test-region filtering on the anchor line.
    let mut filtered: Vec<Diagnostic> = out
        .into_iter()
        .filter(|d| {
            files.iter().position(|(name, _)| *name == d.file).is_none_or(|fi| {
                let (allow, cutoff) = &allows[fi];
                d.line < *cutoff && !allow.is_allowed(&d.rule, d.line)
            })
        })
        .collect();
    filtered.sort();
    filtered.dedup();
    filtered
}

fn mk(
    files: &[(String, String)],
    fi: usize,
    line: usize,
    rule: &str,
    message: String,
) -> Diagnostic {
    Diagnostic { file: files[fi].0.clone(), line, rule: rule.to_string(), message }
}

/// BFS for a path `from → … → to` over the edge adjacency.
fn find_path<'e>(
    adj: &BTreeMap<&str, Vec<&'e Edge>>,
    from: &str,
    to: &str,
) -> Option<Vec<&'e Edge>> {
    let mut prev: BTreeMap<&str, &'e Edge> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from.to_string());
    let mut visited = BTreeSet::new();
    visited.insert(from.to_string());
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut path = Vec::new();
            let mut cur = to.to_string();
            while cur != from {
                let e = prev[cur.as_str()];
                path.push(e);
                cur = e.from.clone();
            }
            path.reverse();
            return Some(path);
        }
        for e in adj.get(node.as_str()).into_iter().flatten() {
            if visited.insert(e.to.clone()) {
                prev.insert(e.to.as_str(), e);
                queue.push_back(e.to.clone());
            }
        }
    }
    None
}

fn totals(
    idx: usize,
    sums: &[(String, usize, usize, FnSum)],
    resolve: &BTreeMap<&str, usize>,
    memo: &mut Vec<Option<Totals>>,
    visiting: &mut Vec<bool>,
    files: &[(String, String)],
) -> Totals {
    if let Some(t) = &memo[idx] {
        return t.clone();
    }
    if visiting[idx] {
        return Totals::default(); // recursion: cut the cycle
    }
    visiting[idx] = true;
    let (name, fi, _, sum) = &sums[idx];
    let mut t = Totals::default();
    for (lock, line) in &sum.acquires {
        t.acquires
            .push((lock.clone(), format!("acquires `{lock}` in {name} ({}:{line})", files[*fi].0)));
    }
    for (what, line) in &sum.recvs {
        t.recvs.push(format!("{what}() in {name} ({}:{line})", files[*fi].0));
    }
    for (callee, line) in &sum.calls {
        if let Some(&ci) = resolve.get(callee.as_str()) {
            if ci == idx {
                continue;
            }
            let inner = totals(ci, sums, resolve, memo, visiting, files);
            let via = format!("via {callee} ({}:{line})", files[*fi].0);
            for (lock, chain) in inner.acquires {
                t.acquires.push((lock, format!("{via} {chain}")));
            }
            for chain in inner.recvs {
                t.recvs.push(format!("{via} {chain}"));
            }
        }
    }
    visiting[idx] = false;
    memo[idx] = Some(t.clone());
    t
}

// ---- the walk --------------------------------------------------------------

/// Lock name for an acquisition call path, e.g. `self.inner.lock` →
/// `inner`. `None` when there is no named receiver or it is stdio.
fn lock_name(path: &[String]) -> Option<String> {
    if path.len() < 2 {
        return None;
    }
    let recv = path[path.len() - 2].as_str();
    let recv = if recv == "self" && path.len() >= 3 { path[path.len() - 3].as_str() } else { recv };
    if recv == "self" || IGNORED_LOCKS.contains(&recv) {
        return None;
    }
    Some(recv.to_string())
}

fn is_acquire(c: &crate::parser::Call) -> Option<String> {
    let last = c.path.last().map(String::as_str)?;
    match last {
        "lock" => lock_name(&c.path),
        "read" | "write" if c.args.is_empty() => lock_name(&c.path),
        _ => None,
    }
}

/// Walks a `{ .. }` block: temporaries die with their statement, and
/// every guard acquired inside dies when the block ends.
fn walk(body: &Body, held: &mut Vec<Held>, p: &mut Pass) {
    let block_base = held.len();
    for stmt in &body.0 {
        let stmt_base = held.len();
        for ev in &stmt.0 {
            event(ev, held, p, None);
        }
        // Temporary (non-`let`) guards die with their statement.
        // `drop(g)` inside the statement may have released guards from
        // earlier statements, so clamp the split point.
        let mut keep: Vec<Held> = held.split_off(stmt_base.min(held.len()));
        keep.retain(|h| h.var.is_some());
        held.append(&mut keep);
    }
    held.truncate(block_base);
}

/// Walks an expression body (a `let` initializer, call arguments, a
/// match scrutinee) without opening a scope: acquisitions survive into
/// the enclosing statement.
fn inline(body: &Body, held: &mut Vec<Held>, p: &mut Pass, current_let: Option<&str>) {
    for stmt in &body.0 {
        for ev in &stmt.0 {
            event(ev, held, p, current_let);
        }
    }
}

/// Calls whose result still carries the guard (`x.lock().unwrap()`).
const GUARD_TAILS: &[&str] = &["lock", "read", "write", "unwrap", "expect", "ok"];

/// True when the initializer's value *is* the guard, so the binding
/// keeps the lock held (`let g = x.lock().unwrap();`) — as opposed to
/// `let n = x.lock().unwrap().len();`, where the guard dies with the
/// statement.
fn init_is_guard(init: &Body) -> bool {
    let Some(stmt) = init.0.last() else { return false };
    // The chain parser emits a trailing Path event mirroring the full
    // chain; skip leaf events backwards to the last actual call.
    for ev in stmt.0.iter().rev() {
        match ev {
            Event::Call(c) => {
                return c.path.last().map(|s| GUARD_TAILS.contains(&s.as_str())).unwrap_or(false)
            }
            Event::Path(..) | Event::Num(..) => continue,
            _ => return false,
        }
    }
    false
}

fn event(ev: &Event, held: &mut Vec<Held>, p: &mut Pass, current_let: Option<&str>) {
    match ev {
        Event::Let(l) => {
            let base = held.len();
            inline(&l.init, held, p, l.name.as_deref());
            if !init_is_guard(&l.init) {
                // The binding is derived data, not the guard itself; the
                // guard is a temporary and dies with this statement.
                for h in held.iter_mut().skip(base) {
                    if h.var.as_deref() == l.name.as_deref() {
                        h.var = None;
                    }
                }
            }
        }
        Event::Match(m) => {
            let base = held.len();
            inline(&m.scrutinee, held, p, current_let);
            for arm in &m.arms {
                walk(&arm.body, held, p);
            }
            held.truncate(base);
        }
        Event::Block(b) => {
            // The condition's temporaries (an `if let` guard) live for the
            // body, so cond and body share one scope.
            let base = held.len();
            inline(&b.cond, held, p, current_let);
            walk(&b.body, held, p);
            held.truncate(base);
        }
        Event::Closure(c) => walk(&c.body, held, p),
        Event::Call(c) => {
            let last = c.path.last().map(String::as_str).unwrap_or("");
            if last == "spawn" {
                // The closure runs on a new thread: nothing is held there.
                for a in &c.args {
                    let mut fresh = Vec::new();
                    inline(a, &mut fresh, p, None);
                }
                return;
            }
            if last == "drop" && c.path.len() == 1 {
                for a in &c.args {
                    for name in single_idents(a) {
                        held.retain(|h| h.var.as_deref() != Some(name.as_str()));
                    }
                }
                return;
            }
            for a in &c.args {
                inline(a, held, p, None);
            }
            if let Some(lock) = is_acquire(c) {
                for h in held.iter() {
                    p.edges.push(Edge {
                        from: h.lock.clone(),
                        to: lock.clone(),
                        site: Some((p.file, c.line)),
                        desc: format!(
                            "`{lock}` acquired in {} at line {} while `{}` is held (line {})",
                            p.fn_name, c.line, h.lock, h.line
                        ),
                    });
                }
                p.sum.acquires.push((lock.clone(), c.line));
                held.push(Held { lock, var: current_let.map(str::to_string), line: c.line });
                return;
            }
            if RECV_FNS.contains(&last) && !c.path.is_empty() {
                p.sum.recvs.push((last.to_string(), c.line));
                if !held.is_empty() {
                    let locks: Vec<&str> = held.iter().map(|h| h.lock.as_str()).collect();
                    p.recv_diags.push((
                        p.file,
                        c.line,
                        format!(
                            "blocking {last}() while holding `{}`; a stalled sender wedges every `{}` user — drop the guard before waiting",
                            locks.join("`, `"),
                            locks.join("`/`")
                        ),
                    ));
                }
                return;
            }
            if !c.is_macro
                && (c.path.len() == 1 || c.path.first().map(String::as_str) == Some("self"))
            {
                p.sum.calls.push((last.to_string(), c.line));
                if !held.is_empty() {
                    p.call_events.push(CallEvent {
                        callee: last.to_string(),
                        held: held.clone(),
                        file: p.file,
                        line: c.line,
                    });
                }
            }
        }
        Event::Path(..) | Event::Num(..) => {}
    }
}

/// Bare single-segment idents at the top of a body (`drop(g)` → `g`).
fn single_idents(b: &Body) -> Vec<String> {
    let mut out = Vec::new();
    b.walk(&mut |ev| {
        if let Event::Path(p, _) = ev {
            if p.len() == 1 {
                out.push(p[0].clone());
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        analyze(&[("t.rs".to_string(), src.to_string())], &[])
    }

    fn rules_of(d: &[Diagnostic]) -> Vec<&str> {
        d.iter().map(|x| x.rule.as_str()).collect()
    }

    #[test]
    fn direct_inversion_is_a_cycle() {
        let d = run(r#"
struct S { alpha: Mutex<u32>, beta: Mutex<u32> }
fn forward(s: &S) {
    let a = s.alpha.lock().unwrap();
    let b = s.beta.lock().unwrap();
}
fn backward(s: &S) {
    let b = s.beta.lock().unwrap();
    let a = s.alpha.lock().unwrap();
}
"#);
        assert_eq!(rules_of(&d), vec!["lock-order"], "{d:?}");
        assert!(d[0].message.contains("alpha") && d[0].message.contains("beta"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let d = run(r#"
fn one(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }
fn two(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }
"#);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn interprocedural_cycle_via_helper() {
        let d = run(r#"
fn forward(s: &S) {
    let a = s.alpha.lock().unwrap();
    grab_beta(s);
}
fn grab_beta(s: &S) { let b = s.beta.lock().unwrap(); }
fn backward(s: &S) {
    let b = s.beta.lock().unwrap();
    let a = s.alpha.lock().unwrap();
}
"#);
        assert_eq!(rules_of(&d), vec!["lock-order"], "{d:?}");
        assert!(
            d[0].message.contains("via") || d[0].message.contains("grab_beta"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn drop_releases_the_guard() {
        let d = run(r#"
fn fine(s: &S) {
    let a = s.alpha.lock().unwrap();
    drop(a);
    let b = s.beta.lock().unwrap();
}
fn backward(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }
"#);
        // backward alone creates beta->alpha but no alpha->beta exists.
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn recv_under_lock_fires_and_spawn_resets() {
        let d = run(r#"
fn bad(s: &S, rx: &Receiver<u8>) {
    let q = s.queue.lock().unwrap();
    let item = rx.recv().unwrap();
}
fn good(s: &S, rx: Receiver<u8>) {
    let q = s.queue.lock().unwrap();
    std::thread::spawn(move || {
        let item = rx.recv().unwrap();
    });
}
"#);
        assert_eq!(rules_of(&d), vec!["recv-under-lock"], "{d:?}");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn declared_order_makes_one_inversion_enough() {
        let d = analyze(
            &[(
                "t.rs".to_string(),
                r#"
fn wrong_way(s: &S) {
    let t = s.trace.lock().unwrap();
    let q = s.queues.lock().unwrap();
}
"#
                .to_string(),
            )],
            &["inner", "queues", "trace"],
        );
        assert_eq!(rules_of(&d), vec!["lock-order"], "{d:?}");
        assert!(d[0].message.contains("declared canonical order"), "{}", d[0].message);
    }

    #[test]
    fn builder_spawn_closure_is_a_fresh_thread() {
        // A lazily spawned writer: or_insert_with runs inline (lock held),
        // but the Builder::spawn closure inside it is a new thread.
        let d = run(r#"
fn send(s: &S, rx: Receiver<Vec<u8>>) {
    let mut q = s.queues.lock().unwrap();
    q.entry(3).or_insert_with(|| {
        std::thread::Builder::new().name(String::from("w")).spawn(move || loop {
            let buf = rx.recv().unwrap();
        }).unwrap()
    });
}
"#);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn io_read_and_stdout_lock_are_not_locks() {
        let d = run(r#"
fn pump(sock: &mut TcpStream, buf: &mut [u8]) {
    let n = sock.read(buf).unwrap();
    let out = std::io::stdout().lock();
}
fn other(s: &S) { let b = s.read.lock().unwrap(); }
"#);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_region_does_not_constrain_order() {
        let d = run(r#"
fn forward(s: &S) { let a = s.alpha.lock().unwrap(); let b = s.beta.lock().unwrap(); }
#[cfg(test)]
mod tests {
    fn backward(s: &S) { let b = s.beta.lock().unwrap(); let a = s.alpha.lock().unwrap(); }
}
"#);
        assert!(d.is_empty(), "{d:?}");
    }
}
