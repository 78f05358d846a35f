//! Query shapes, the four workloads, and their seeded op streams.
//!
//! Everything the engine sees is generated here from `--seed`: the
//! database (via `oodb_datagen`), the literals, and the order of ops.
//! Mixes are laid out in shuffled fixed-composition blocks rather than
//! drawn op by op, so every run holds exactly the stated share of each
//! latency class (README, "Why these mixes").

use oodb_adl::dsl::{and, eq, int, join, lt, map, ne, select, str_lit, table, tuple, unnest, var};
use oodb_adl::Expr;

/// Objects in the generated database (16k parts / 8k suppliers / 8k
/// deliveries).
pub const SCALE: usize = 32_000;
/// Scale of the correctness gate's database, small enough for the naive
/// nested-loop evaluator.
pub const GATE_SCALE: usize = 400;
/// Objects one write op inserts (half parts, half suppliers, so both
/// extents' versions move and every cached text is invalidated). Eight
/// keeps growth under 5 % of the database over a 30 s run.
pub const WRITE_BATCH: usize = 8;
/// Reads of each text per write cycle: one miss, then hits.
pub const READS_PER_TEXT: usize = 3;

/// What query generation needs to know about the generated database.
#[derive(Clone, Copy, Debug)]
pub struct DbInfo {
    pub suppliers: u64,
    /// A supplier with a mid-sized `parts` set, for the fixed q31 text:
    /// an empty set would turn `supseteq` into "every supplier" and move
    /// the text into another latency class on some seeds.
    pub q31_anchor: u64,
}

const COLORS: [&str; 5] = ["red", "blue", "green", "black", "white"];

/// The query shapes of the paper (plus three fillers for the hot set).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Example Query 5: semijoin through a set-valued attribute.
    Q5,
    /// Example Query 4: antijoin (referential integrity).
    Q4,
    /// Example Query 6: nestjoin (nesting in the select clause).
    Q6,
    /// Example Query 3.1: uncorrelated set comparison (hoisted `let`).
    Q31,
    /// §6.2 materialisation: pointer dereference inside an unnest.
    Materialize,
    /// Three-extent inner equi-join chain — submitted as ADL, because the
    /// OOSQL front end cannot express it at the baseline (README).
    Chain,
    /// Plain selection.
    Sigma,
    /// Nestjoin of deliveries under suppliers (8 chunks of nested rows).
    NestDeliveries,
    /// Deliveries with a qualifying supply line (fat tuples, 5 chunks).
    DeliveryExists,
    /// Index semijoin SUPPLIER ⋉ DELIVERY on one date.
    DateSemi,
}

/// One query as the client submits it.
#[derive(Clone, Debug)]
pub struct Query {
    /// OOSQL source, or a label when `adl` is set.
    pub text: String,
    /// Already-translated form for [`Shape::Chain`]; goes through
    /// `Session::open_expr_stream` and has no wire form.
    pub adl: Option<Expr>,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Q5 => "q5_semijoin",
            Shape::Q4 => "q4_antijoin",
            Shape::Q6 => "q6_nestjoin",
            Shape::Q31 => "q31_setcmp",
            Shape::Materialize => "materialize",
            Shape::Chain => "join_chain",
            Shape::Sigma => "sigma",
            Shape::NestDeliveries => "nest_deliveries",
            Shape::DeliveryExists => "delivery_exists",
            Shape::DateSemi => "date_semijoin",
        }
    }

    /// Number of distinct literals the shape has on a database with
    /// `suppliers` suppliers. Each text carries a literal that sets its
    /// cost (a price or quantity threshold, kept within a few percent so
    /// a shape is one latency class) and a literal that only makes the
    /// text unique (an inequality that excludes at most one object).
    fn domain(self, suppliers: u64) -> u64 {
        match self {
            Shape::Q5 | Shape::Q6 | Shape::Sigma | Shape::Chain => 5 * 20 * 500,
            Shape::Q4 | Shape::Q31 => suppliers,
            Shape::Materialize => 5 * 28 * 500,
            Shape::NestDeliveries | Shape::DateSemi => 28,
            Shape::DeliveryExists => 5 * 20,
        }
    }

    /// The query for literal index `lit` (taken modulo the domain).
    pub fn query(self, lit: u64, suppliers: u64) -> Query {
        let lit = lit % self.domain(suppliers);
        let color = COLORS[(lit % 5) as usize];
        // Thresholds of the price-filtered shapes: 500..520 of 1..1000.
        let price = 500 + lit / 5 % 20;
        // The part no text wants, to make the text unique.
        let skip = format!("part-{}", lit / 100);
        let text = match self {
            Shape::Q5 => format!(
                "select s.sname from s in SUPPLIER where exists x in s.parts : \
                 exists p in PART : x = p.pid and p.color = \"{color}\" and p.price < {price} \
                 and p.pname <> \"{skip}\""
            ),
            Shape::Q4 => format!(
                "select s.eid from s in SUPPLIER where s.sname <> \"supplier-{lit}\" and \
                 exists x in s.parts : not (exists p in PART : x = p.pid)"
            ),
            Shape::Q6 => format!(
                "select (sname := s.sname, partssuppl := select p from p in PART \
                 where p.pid in s.parts and p.price < {price} and p.color <> \"{color}\" \
                 and p.pname <> \"{skip}\") from s in SUPPLIER"
            ),
            Shape::Q31 => format!(
                "select s.sname from s in SUPPLIER where s.parts supseteq \
                 flatten(select t.parts from t in SUPPLIER where t.sname = \"supplier-{lit}\")"
            ),
            Shape::Materialize => format!(
                "select (did := d.did, q := x.quantity, pname := x.part.pname) \
                 from d in DELIVERY, x in d.supply \
                 where x.quantity < {} and x.quantity <> {} and d.date <> date({})",
                60 + lit % 5,
                100 + lit / 140,
                940_101 + lit / 5 % 28
            ),
            Shape::Chain => {
                let price = 150 + lit / 5 % 20;
                let parts = select(
                    "p",
                    and(
                        lt(var("p").field("price"), int(price as i64)),
                        and(
                            ne(var("p").field("color"), str_lit(color)),
                            ne(var("p").field("pname"), str_lit(&skip)),
                        ),
                    ),
                    table("PART"),
                );
                let chain = join(
                    "sd",
                    "p",
                    eq(var("sd").field("part"), var("p").field("pid")),
                    join(
                        "s",
                        "d",
                        eq(var("s").field("eid"), var("d").field("supplier")),
                        table("SUPPLIER"),
                        unnest("supply", table("DELIVERY")),
                    ),
                    parts,
                );
                let adl = map(
                    "r",
                    tuple(vec![
                        ("sname", var("r").field("sname")),
                        ("pname", var("r").field("pname")),
                        ("quantity", var("r").field("quantity")),
                    ]),
                    chain,
                );
                return Query {
                    text: format!("adl:join_chain price<{price} color<>{color} pname<>{skip}"),
                    adl: Some(adl),
                };
            }
            Shape::Sigma => format!(
                "select p.pname from p in PART where p.price < {price} and p.color = \"{color}\" \
                 and p.pname <> \"{skip}\""
            ),
            Shape::NestDeliveries => format!(
                "select (sname := s.sname, dels := select d.did from d in DELIVERY \
                 where d.supplier = s.eid and d.date = date({})) from s in SUPPLIER",
                940_101 + lit
            ),
            Shape::DeliveryExists => format!(
                "select d from d in DELIVERY where exists x in d.supply : \
                 x.part.color = \"{color}\" and x.quantity < {}",
                300 + lit / 5
            ),
            Shape::DateSemi => format!(
                "select s.sname from s in SUPPLIER where exists d in DELIVERY : \
                 d.supplier = s.eid and d.date = date({})",
                940_101 + lit
            ),
        };
        Query { text, adl: None }
    }
}

/// How a workload reaches the server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// `Session::open_stream` + `next_chunk` in the benchmark process.
    InProcess,
    /// The binary protocol over loopback TCP (`net::serve`, `WireClient`).
    Wire,
}

/// What the op stream is made of.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// Every op a fresh literal: cache keys never repeat.
    Distinct,
    /// Fixed texts, Zipf-weighted, all cache-resident after warm-up.
    Hot,
    /// One write, then [`READS_PER_TEXT`] rounds over fixed texts.
    WriteCycle,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub transport: Transport,
    pub mix: Mix,
    /// Closed-loop clients (threads or connections); never above the
    /// reference box's 2 cores.
    pub clients: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "plan_exec_distinct",
        why: "fresh literal per op: parse, rewrite, plan and execute do all the work, caches none",
        transport: Transport::InProcess,
        mix: Mix::Distinct,
        clients: 1,
    },
    Workload {
        name: "session_hot",
        why: "8 cache-resident texts from 2 sessions: parse, cache lookups and replay are the cost",
        transport: Transport::InProcess,
        mix: Mix::Hot,
        clients: 2,
    },
    Workload {
        name: "wire_stream",
        why: "session_hot's op stream over 2 TCP connections: the difference is the transport",
        transport: Transport::Wire,
        mix: Mix::Hot,
        clients: 2,
    },
    Workload {
        name: "write_invalidate",
        why: "inserts and server rebuilds between cached reads: what a write costs the readers",
        transport: Transport::InProcess,
        mix: Mix::WriteCycle,
        clients: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(shape, ops per block of 40)`, cheapest shape first. Sorted by
/// latency the blocks read: sigma and q31, within a fifth of each other,
/// p0–72.5 (p50 sits well inside), materialize p72.5–77.5,
/// q5/q4/join_chain p77.5–85 and q6 p85–100 (p95 sits 10 points inside
/// it). The cheap shapes are given the weight so that a 20 s run holds
/// over 400 ops even when the box runs a fifth slower than usual.
const DISTINCT_BLOCK: [(Shape, usize); 7] = [
    (Shape::Sigma, 16),
    (Shape::Q31, 13),
    (Shape::Materialize, 2),
    (Shape::Q5, 1),
    (Shape::Q4, 1),
    (Shape::Chain, 1),
    (Shape::Q6, 6),
];

/// Placeholder literal: replaced by [`DbInfo::q31_anchor`].
const Q31_ANCHOR: u64 = u64::MAX;

/// `(shape, literal, ops per block of 100)`: a Zipf-like head. Half the
/// texts return more than two chunks. The weights place p50 and p95 inside
/// one latency class on both transports. In process, by hit latency: the
/// four single-chunk texts fill p0–72 (p50 inside), q5, materialize and
/// nest_deliveries p72–85, delivery_exists p85–100 (p95 inside). Over the
/// wire at the baseline the order flips: a single-chunk answer reliably
/// takes two delayed-ACK stalls (87–88 ms), a multi-chunk one sometimes
/// one and sometimes two — q5 is a coin flip between 44 and 88 ms — so
/// the multi-chunk texts are kept to p0–28 and both percentiles sit in
/// the single-chunk class whichever way those coins fall.
const HOT_BLOCK: [(Shape, u64, usize); 8] = [
    (Shape::DateSemi, 4, 62),
    (Shape::DeliveryExists, 0, 15),
    (Shape::Q5, 0, 5),
    (Shape::NestDeliveries, 4, 4),
    (Shape::Materialize, 0, 4),
    (Shape::Q31, Q31_ANCHOR, 4),
    (Shape::Q4, 17, 3),
    (Shape::DateSemi, 11, 3),
];

/// Texts of the write cycle. All read PART or SUPPLIER, so every write
/// invalidates all four. The two q5 texts are one latency class on
/// purpose: they are both the largest results and the slowest to
/// recompute, so their hits fill p31–62 (p50 inside) and their misses
/// p85–100 (p95 inside); the two small texts' hits fill p0–31, their
/// misses and the write p62–85.
const WRITE_TEXTS: [(Shape, u64); 4] = [
    (Shape::Q31, Q31_ANCHOR),
    (Shape::Sigma, 0),
    (Shape::Q5, 0),
    (Shape::Q5, 1),
];

/// SplitMix64: a small seedable generator, local so that the op stream
/// does not change when the repo's `rand` stand-in does.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A prime above every literal domain: `i * STRIDE mod n` then visits
/// each of the `n` literals once before any repeats.
const STRIDE: u64 = 1_000_003;

#[derive(Clone, Debug)]
pub enum Op {
    Read {
        /// Index into [`OpStream::templates`].
        template: usize,
        query: Query,
    },
    /// Insert [`WRITE_BATCH`] objects, then rebuild the server.
    Write,
}

/// The deterministic op sequence of one client.
pub struct OpStream {
    mix: Mix,
    rng: Rng,
    info: DbInfo,
    /// Template indexes of the current block, consumed from the back.
    block: Vec<usize>,
    /// Literals handed out so far, per template (distinct mix).
    used: Vec<u64>,
    /// Literal offset per template, from the seed.
    offset: Vec<u64>,
    /// Position in the write cycle.
    cycle_pos: usize,
    fixed: Vec<Query>,
}

impl OpStream {
    pub fn new(mix: Mix, seed: u64, client: usize, info: DbInfo) -> OpStream {
        let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let n = templates(mix).len();
        let offset = (0..n).map(|_| rng.below(STRIDE)).collect();
        OpStream {
            mix,
            rng,
            info,
            block: Vec::new(),
            used: vec![0; n],
            offset,
            cycle_pos: 0,
            fixed: fixed_queries(mix, info),
        }
    }

    /// The `i`-th fresh literal of a distinct-mix template.
    fn distinct_query(&self, template: usize, i: u64) -> Query {
        let shape = DISTINCT_BLOCK[template].0;
        let n = shape.domain(self.info.suppliers);
        shape.query(
            ((i % n) * STRIDE + self.offset[template]) % n,
            self.info.suppliers,
        )
    }

    /// The warm-up pass: every template three times. The distinct mix
    /// warms with the last three literals of each template's sequence,
    /// which no run is long enough to reach, so the timed phase still
    /// never repeats a key.
    pub fn warm_up_ops(&self) -> Vec<(usize, Query)> {
        let mut ops = Vec::new();
        for round in 0..3u64 {
            for (t, shape) in templates(self.mix).iter().enumerate() {
                let query = match self.mix {
                    Mix::Distinct => {
                        self.distinct_query(t, shape.domain(self.info.suppliers) - 1 - round)
                    }
                    _ => self.fixed[t].clone(),
                };
                ops.push((t, query));
            }
        }
        ops
    }

    fn refill(&mut self) {
        let counts: Vec<usize> = match self.mix {
            Mix::Distinct => DISTINCT_BLOCK.iter().map(|&(_, n)| n).collect(),
            Mix::Hot => HOT_BLOCK.iter().map(|&(_, _, n)| n).collect(),
            Mix::WriteCycle => unreachable!("the write cycle has a fixed order"),
        };
        self.block = counts
            .iter()
            .enumerate()
            .flat_map(|(t, &n)| std::iter::repeat_n(t, n))
            .collect();
        self.rng.shuffle(&mut self.block);
    }

    pub fn next_op(&mut self) -> Op {
        if self.mix == Mix::WriteCycle {
            let pos = self.cycle_pos;
            self.cycle_pos = (pos + 1) % (1 + READS_PER_TEXT * WRITE_TEXTS.len());
            if pos == 0 {
                return Op::Write;
            }
            let template = (pos - 1) % WRITE_TEXTS.len();
            return Op::Read {
                template,
                query: self.fixed[template].clone(),
            };
        }
        if self.block.is_empty() {
            self.refill();
        }
        let template = self.block.pop().expect("block was just refilled");
        let query = match self.mix {
            Mix::Distinct => {
                let i = self.used[template];
                self.used[template] += 1;
                self.distinct_query(template, i)
            }
            _ => self.fixed[template].clone(),
        };
        Op::Read { template, query }
    }
}

/// Shapes of a mix, indexed by template.
pub fn templates(mix: Mix) -> Vec<Shape> {
    match mix {
        Mix::Distinct => DISTINCT_BLOCK.iter().map(|&(s, _)| s).collect(),
        Mix::Hot => HOT_BLOCK.iter().map(|&(s, _, _)| s).collect(),
        Mix::WriteCycle => WRITE_TEXTS.iter().map(|&(s, _)| s).collect(),
    }
}

/// The fixed texts of a mix (empty for the distinct mix).
pub fn fixed_queries(mix: Mix, info: DbInfo) -> Vec<Query> {
    let fixed = |shape: Shape, lit: u64| {
        let lit = if lit == Q31_ANCHOR {
            info.q31_anchor
        } else {
            lit
        };
        shape.query(lit, info.suppliers)
    };
    match mix {
        Mix::Distinct => Vec::new(),
        Mix::Hot => HOT_BLOCK.iter().map(|&(s, lit, _)| fixed(s, lit)).collect(),
        Mix::WriteCycle => WRITE_TEXTS.iter().map(|&(s, lit)| fixed(s, lit)).collect(),
    }
}
