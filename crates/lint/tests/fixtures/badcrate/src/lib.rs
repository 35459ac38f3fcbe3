// Fixture crate for the golden diagnostics test: one deliberate
// violation per rule, plus constructs that must NOT fire. Line numbers
// matter — keep expected.txt in sync when editing.

use std::collections::HashMap;

pub fn wall_clock() -> u64 {
    let _t = Instant::now();
    0
}

pub fn allowed_wall_clock() -> u64 {
    let _t = SystemTime::now(); // lint:allow(no-wall-clock): fixture demonstrates a justified escape
    let _bare = Instant::now(); // lint:allow(no-wall-clock)
    0
}

pub fn unordered(set: HashSet<u32>) -> usize {
    set.len()
}

pub fn hot_path(v: Vec<u8>) -> u8 {
    let first = v.first().unwrap();
    let second = v.get(1).expect("fixture");
    if v.len() > 9000 {
        panic!("too big");
    }
    first + second + v[2]
}

pub fn not_indexing() {
    let _pattern = if true { 1 } else { 2 };
    let [_a, _b] = [1u8, 2u8];
    let _arr: [u8; 4] = [0; 4];
    let _v = vec![1, 2, 3];
}

pub fn atomics(a: &AtomicU64) -> u64 {
    // ordering: fixture shows a justified relaxed load
    let ok = a.load(Ordering::Relaxed);
    let bad = a.load(Ordering::SeqCst);
    ok + bad
}

pub fn metrics(reg: &Registry) {
    let _good = reg.counter("app.requests");
    let _bad_prefix = reg.counter("unprefixed.requests");
    let _dup = reg.counter("app.requests");
}

pub fn strings_and_comments_do_not_fire() {
    // Instant::now() in a comment is fine.
    let _s = "Instant::now() in a string is fine";
    let _r = r#"HashMap in a raw string is fine, even "quoted""#;
    let _c = 'x';
    let _nested = 1; /* block /* nested */ comment with panic!() inside */
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_region_is_exempt() {
        let v: Vec<u8> = vec![1];
        let _ = v[0];
        let _ = v.first().unwrap();
        let _t = Instant::now();
        let _m: HashMap<u8, u8> = HashMap::new();
    }
}
