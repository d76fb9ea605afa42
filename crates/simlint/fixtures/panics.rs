// Seeded violations for the panic-discipline family: panic (deny) and
// index-panic (warn). Analyzed under `crates/bgp/src/panics.rs`.

pub fn noisy(xs: &[u32], i: usize) -> u32 {
    let first = xs.first().unwrap(); //~ panic
    let second = xs.get(1).expect("fixture"); //~ panic
    if i > xs.len() {
        panic!("out of range"); //~ panic
    }
    match first {
        0 => unreachable!(), //~ panic
        _ => {}
    }
    xs[i] + second //~ index-panic
}

pub fn unfinished() {
    todo!() //~ panic
}

pub fn indexes(v: &[u32], m: &[Vec<u32>], i: usize, j: usize) -> u32 {
    let f = |x: u32| v.iter().map(move |y| x + y).collect::<Vec<_>>();
    v[i] //~ index-panic
        + m[i][j] //~ index-panic index-panic
        + f(1)[i] //~ index-panic
}

pub struct Wrap(Vec<u32>);

impl std::ops::Index<usize> for Wrap {
    type Output = u32;
    fn index(&self, i: usize) -> &u32 {
        self.0.get(i).unwrap_or(&0)
    }
}

impl Wrap {
    pub fn at(&self, i: usize) -> u32 {
        self[i] //~ index-panic
    }
}

pub fn not_indexing(buf: &mut [u32], p: [u32; 2], a: u32, b: u32) -> u32 {
    // After a keyword a `[` opens an array, a slice type or a pattern.
    let [x, y] = p;
    let mut sum = x + y;
    for s in [a, b] {
        sum += s;
    }
    buf.iter().fold(sum, |acc, z| acc + z)
}

pub fn graceful(xs: &[u32], i: usize) -> Option<u32> {
    // The non-panicking spellings of the same operations are clean.
    xs.get(i).copied()
}

pub fn by_contract(xs: &[u32]) -> u32 {
    // simlint::allow(panic, "fixture: caller guarantees non-empty input")
    xs.first().copied().unwrap()
}

#[test]
fn panics_are_fine_in_tests() {
    let xs = [1u32, 2];
    assert_eq!(xs[0], 1);
    let _ = Option::Some(3u32).unwrap();
}
