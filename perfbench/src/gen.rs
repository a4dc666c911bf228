//! Seeded input generators. Every input a workload feeds the program
//! comes from here, keyed by the run's `--seed`, a stream name and a
//! round number, so the same seed always yields the same inputs.

/// SplitMix64: small, fast, and good enough for load generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one `(seed, stream, round)` triple.
    pub fn new(seed: u64, stream: &str, round: u64) -> Rng {
        // FNV-1a over the stream name keeps streams independent.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h.rotate_left(17) ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Bytes of a path-like argument: all inside the shell-bypass safe set.
const PATH_BYTES: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";

/// Bytes outside the bypass analyzer's safe set that still leave
/// `/bin/true <arg>` exiting 0 under `sh -c` (globs, tilde, comment,
/// braces): each forces the `sh -c` launch path without failing it.
const SHELL_BYTES: &[u8] = b"*?~#{}[]";

/// One path-like argument of 4 to 64 bytes: `/`-separated segments
/// ending in a short extension, e.g. `q7/run_3-b/x9.dat`.
pub fn path_arg(rng: &mut Rng) -> String {
    let len = rng.range(4, 64) as usize;
    let ext = if len >= 6 {
        rng.range(1, 3) as usize
    } else {
        0
    };
    let stem = len - if ext > 0 { ext + 1 } else { 0 };
    let mut s = String::with_capacity(len);
    for i in 0..stem {
        let slash = i > 0 && i + 1 < stem && !s.ends_with('/') && rng.below(8) == 0;
        if slash {
            s.push('/');
        } else {
            s.push(PATH_BYTES[rng.below(PATH_BYTES.len() as u64) as usize] as char);
        }
    }
    if ext > 0 {
        s.push('.');
        for _ in 0..ext {
            s.push((b'a' + rng.below(26) as u8) as char);
        }
    }
    s
}

/// `n` path-like arguments.
pub fn path_args(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n).map(|_| path_arg(rng)).collect()
}

/// `n` path-like arguments of which about a quarter carry one byte
/// that makes `/bin/true <arg>` need a shell.
pub fn spawn_args(rng: &mut Rng, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let arg = path_arg(rng);
            if rng.below(4) != 0 {
                return arg;
            }
            let mut bytes = arg.into_bytes();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = SHELL_BYTES[rng.below(SHELL_BYTES.len() as u64) as usize];
            String::from_utf8(bytes).expect("ASCII in, ASCII out")
        })
        .collect()
}

/// One task of a generated DAG: its command and the indices of the
/// tasks it depends on (all lower than its own index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagTask {
    pub command: String,
    pub deps: Vec<usize>,
}

/// `chains` independent seeded chains of fan-out/fan-in blocks holding
/// exactly `n` tasks between them. Each block has a width of 1 to 4:
/// width 1 is one chain link, width `w >= 2` is a diamond of `w`
/// parallel tasks and a join. Every block hangs off the last task of
/// the previous block in its chain. Returns the tasks and the length of
/// the longest critical path in tasks.
pub fn dag_chains(rng: &mut Rng, n: usize, chains: usize) -> (Vec<DagTask>, usize) {
    let mut tasks: Vec<DagTask> = Vec::with_capacity(n);
    let mut longest = 0;
    for c in 0..chains {
        let end = n * (c + 1) / chains;
        let (mut tail, mut depth) = (None, 0);
        while tasks.len() < end {
            let deps: Vec<usize> = tail.into_iter().collect();
            let width = rng.range(1, 4) as usize;
            // Each chain starts from a single root.
            if width == 1 || tail.is_none() || end - tasks.len() < width + 1 {
                tasks.push(DagTask {
                    command: path_arg(rng),
                    deps,
                });
                depth += 1;
            } else {
                let first = tasks.len();
                for _ in 0..width {
                    tasks.push(DagTask {
                        command: path_arg(rng),
                        deps: deps.clone(),
                    });
                }
                tasks.push(DagTask {
                    command: path_arg(rng),
                    deps: (first..first + width).collect(),
                });
                depth += 2;
            }
            tail = Some(tasks.len() - 1);
        }
        longest = longest.max(depth);
    }
    (tasks, longest)
}

/// `n` session sizes, log-uniform over `lo..=hi` tasks, in random
/// order. The draw is stratified (one size from each of `n` equally
/// likely bands), so every seed gets the same mix of small and large
/// sessions and only the exact sizes and their order change.
pub fn session_sizes(rng: &mut Rng, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let (a, b) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.unit()) / n as f64;
            ((a + u * (b - a)).exp() as u64).clamp(lo, hi)
        })
        .collect();
    for i in (1..n).rev() {
        sizes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = path_args(&mut Rng::new(7, "args", 0), 200);
        let b = path_args(&mut Rng::new(7, "args", 0), 200);
        let c = path_args(&mut Rng::new(8, "args", 0), 200);
        let d = path_args(&mut Rng::new(7, "args", 1), 200);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(
            dag_chains(&mut Rng::new(3, "dag", 0), 500, 2),
            dag_chains(&mut Rng::new(3, "dag", 0), 500, 2)
        );
        assert_ne!(
            dag_chains(&mut Rng::new(3, "dag", 0), 500, 2),
            dag_chains(&mut Rng::new(4, "dag", 0), 500, 2)
        );
        let s = session_sizes(&mut Rng::new(1, "s", 0), 100, 10, 5000);
        assert_eq!(s, session_sizes(&mut Rng::new(1, "s", 0), 100, 10, 5000));
        assert_ne!(s, session_sizes(&mut Rng::new(2, "s", 0), 100, 10, 5000));
    }

    #[test]
    fn path_args_have_the_promised_shape() {
        let mut rng = Rng::new(11, "args", 0);
        for arg in path_args(&mut rng, 2000) {
            assert!((4..=64).contains(&arg.len()), "{arg:?}");
            assert!(!arg.starts_with('/') && !arg.contains("//"), "{arg:?}");
            assert!(htpar_core::spawn::bypass_argv(&format!("/bin/true {arg}")).is_some());
        }
    }

    #[test]
    fn about_a_quarter_of_spawn_args_need_a_shell() {
        let args = spawn_args(&mut Rng::new(5, "args", 0), 4000);
        let shell = args
            .iter()
            .filter(|a| htpar_core::spawn::bypass_argv(&format!("/bin/true {a}")).is_none())
            .count();
        let frac = shell as f64 / args.len() as f64;
        assert!((0.2..0.3).contains(&frac), "{frac}");
    }

    #[test]
    fn dag_chains_are_exact_acyclic_and_block_shaped() {
        let (tasks, depth) = dag_chains(&mut Rng::new(9, "dag", 0), 1000, 3);
        assert_eq!(tasks.len(), 1000);
        let roots: Vec<usize> = (0..1000).filter(|&i| tasks[i].deps.is_empty()).collect();
        assert_eq!(roots, vec![0, 333, 666]);
        for (i, t) in tasks.iter().enumerate() {
            assert!(t.deps.len() <= 4 && t.deps.iter().all(|&d| d < i));
        }
        // A third of the tasks per chain, about 0.54 steps per task.
        assert!(depth > 333 / 3 && depth < 333, "{depth}");
    }

    #[test]
    fn session_sizes_stay_in_range_and_spread_out() {
        let s = session_sizes(&mut Rng::new(1, "s", 0), 5000, 10, 5000);
        assert!(s.iter().all(|&n| (10..=5000).contains(&n)));
        let small = s.iter().filter(|&&n| n < 100).count();
        let large = s.iter().filter(|&&n| n > 1000).count();
        // log-uniform: ln(10)/ln(500) of the mass below 100, ln(5)/ln(500) above 1000.
        assert!((1800..1900).contains(&small), "{small}");
        assert!((1250..1350).contains(&large), "{large}");
        // Stratified: totals barely move between seeds, order does.
        let t: Vec<u64> = (0..5)
            .map(|seed| {
                session_sizes(&mut Rng::new(seed, "s", 0), 200, 10, 5000)
                    .iter()
                    .sum()
            })
            .collect();
        let (lo, hi) = (*t.iter().min().unwrap(), *t.iter().max().unwrap());
        assert!((hi - lo) as f64 / (lo as f64) < 0.05, "{t:?}");
    }
}
