//! The three workloads: their tenants, deployment settings and seeded
//! round generators.
//!
//! Every workload has the same load shape: at most two client threads,
//! one connection each, a closed loop with zero think time, and a round
//! of one edit followed by one read on the same session. Each client's
//! tenants are named so that they route to shards no other client
//! touches, so the request order a shard sees, and with it its residency
//! (LRU) history, is fixed by the seed.

use crate::util::{sub_seed, Rng};
use gmaa_gen::{Family, GenConfig};
use gmaa_serve::{Request, ServeConfig, SessionManager};
use maut::{AttributeId, DecisionModel, Interval, ObjectiveId, Perf, Scale};

/// A `SetWeight` replaces every `WEIGHT_EVERY`-th edit of a
/// `screening-large` tenant. At one in ten the read p90 would sit on
/// the boundary between incremental and full cycles and jump between
/// them from run to run; at one in eight it lies inside the full cycles.
pub const WEIGHT_EVERY: u64 = 8;

/// Sub-stream tags of the workload seed: model seeds, weight nudges,
/// and each client's round plan.
const TAG_MODELS: u64 = 1 << 16;
const TAG_NUDGES: u64 = 2 << 16;
const TAG_PLANS: u64 = 3 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WhatifSmall,
    ScreeningLarge,
    ChurnDurable,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WhatifSmall, Kind::ScreeningLarge, Kind::ChurnDurable];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WhatifSmall => "whatif-small",
            Kind::ScreeningLarge => "screening-large",
            Kind::ChurnDurable => "churn-durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A seeded weight edit of one objective: widening keeps every sibling
/// group feasible (lows only fall, highs only rise).
#[derive(Debug, Clone, Copy)]
struct Nudge {
    objective: ObjectiveId,
    original: Interval,
    widened: Interval,
}

#[derive(Debug)]
pub struct Tenant {
    pub name: String,
    pub model: DecisionModel,
    pub client: usize,
    pub shard: usize,
    /// Discrete attributes and their level counts: the editable cells.
    cells: Vec<(AttributeId, usize)>,
    nudges: Vec<Nudge>,
}

#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub tenants: Vec<Tenant>,
    pub clients: usize,
    pub config: ServeConfig,
    pub durable: bool,
    pub seed: u64,
}

/// One round: an edit, then a read of the same session. Kept compact
/// (the requests are built when sent or replayed) because every round is
/// logged, and the log lives in the serving process whose peak memory the
/// benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub tenant: usize,
    pub edit: Edit,
    pub read: Read,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// `SetPerf` of the tenant's editable cell `cell` to `level`.
    Perf {
        alternative: u32,
        cell: u16,
        level: u16,
    },
    /// `SetWeight` of nudge `nudge`: widened, or back to the original.
    Weight { nudge: u16, widen: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    Analyze,
    Cycle,
    Snapshot,
}

fn minnow(family: Family, alternatives: usize, seed: u64) -> DecisionModel {
    gmaa_gen::generate(&GenConfig::preset(family, alternatives, 10, seed))
}

const MINNOW_FAMILIES: [Family; 3] = [Family::Flat, Family::Deep, Family::NearDegenerate];
const MINNOW_SIZES: [usize; 3] = [20, 30, 40];

/// `(name stem, model, client)` of every tenant, in creation order.
fn tenant_models(kind: Kind, seed: u64) -> Vec<(String, DecisionModel, usize)> {
    let gen_seed = |i: usize| sub_seed(seed, TAG_MODELS + i as u64);
    match kind {
        Kind::WhatifSmall => {
            let mut models = vec![
                ("paper-a".to_string(), neon_reuse::paper_model().model),
                ("paper-b".to_string(), neon_reuse::paper_model().model),
                (
                    "assess".to_string(),
                    neon_reuse::corpus::assessment_model(10, gen_seed(0)),
                ),
            ];
            for (f, family) in MINNOW_FAMILIES.into_iter().enumerate() {
                for (s, n) in MINNOW_SIZES.into_iter().enumerate() {
                    let i = 1 + 3 * f + s;
                    models.push((
                        format!("{}-{n}", family.key()),
                        minnow(family, n, gen_seed(i)),
                    ));
                }
            }
            models
                .into_iter()
                .enumerate()
                .map(|(i, (name, model))| (name, model, i % 2))
                .collect()
        }
        Kind::ScreeningLarge => vec![
            (
                "mixed-750".to_string(),
                gmaa_gen::generate(&GenConfig::preset(Family::Mixed, 750, 10, gen_seed(0))),
                0,
            ),
            (
                "mixed-300".to_string(),
                gmaa_gen::generate(&GenConfig::preset(Family::Mixed, 300, 12, gen_seed(1))),
                1,
            ),
            (
                "frontrunner-300".to_string(),
                gmaa_gen::generate(&GenConfig::preset(
                    Family::FrontrunnerHeavy,
                    300,
                    10,
                    gen_seed(2),
                )),
                1,
            ),
        ],
        Kind::ChurnDurable => (0..48)
            .map(|i| {
                let model = if i % 4 == 0 {
                    neon_reuse::paper_model().model
                } else {
                    let family = MINNOW_FAMILIES[i % 3];
                    minnow(family, MINNOW_SIZES[(i / 3) % 3], gen_seed(i))
                };
                (format!("tenant-{i:02}"), model, i % 2)
            })
            .collect(),
    }
}

fn editable_cells(model: &DecisionModel) -> Vec<(AttributeId, usize)> {
    model
        .attributes
        .iter()
        .enumerate()
        .filter_map(|(i, a)| match &a.scale {
            Scale::Discrete(d) if d.len() > 1 => Some((AttributeId::from_index(i), d.len())),
            _ => None,
        })
        .collect()
}

fn weight_nudges(model: &DecisionModel, rng: &mut Rng) -> Vec<Nudge> {
    let local = model.resolved_local_weights();
    let mut nudges = Vec::new();
    for (id, objective) in model.tree.iter() {
        let Some(parent) = objective.parent else {
            continue;
        };
        if model.tree.get(parent).children.len() < 2 {
            continue;
        }
        let original = local[id.index()];
        let delta = 0.02 + 0.03 * rng.unit();
        let widened = Interval::new(
            (original.lo() - delta).max(0.0),
            (original.hi() + delta).min(1.0),
        );
        let mut edited = local.clone();
        edited[id.index()] = widened;
        if widened != original && maut::weights::check_feasible(&model.tree, &edited).is_ok() {
            nudges.push(Nudge {
                objective: id,
                original,
                widened,
            });
        }
    }
    nudges
}

/// The first name `stem-k` that `router` places on `shard`.
fn name_on_shard(router: &SessionManager, stem: &str, shard: usize) -> String {
    (0..)
        .map(|k| format!("{stem}-{k}"))
        .find(|name| router.shard_of(name) == shard)
        .expect("fnv routing reaches every shard")
}

impl Workload {
    /// Build a workload's inputs from its seed. Model generation is
    /// input preparation, not set-up.
    pub fn build(kind: Kind, seed: u64) -> Result<Workload, String> {
        let mut config = ServeConfig::default();
        if kind == Kind::ChurnDurable {
            config.max_sessions_per_shard = 4;
        }
        let shards = config.shards.max(1);
        let clients = shards.min(2);
        // A throwaway manager answers which shard each name routes to.
        let router = SessionManager::new(ServeConfig {
            shards,
            ..ServeConfig::default()
        });
        let per_client = shards / clients;
        let mut placed = vec![0usize; clients];
        let mut rng = Rng::new(sub_seed(seed, TAG_NUDGES));
        let mut tenants = Vec::new();
        for (stem, model, client) in tenant_models(kind, seed) {
            let client = client % clients;
            let shard = client + clients * (placed[client] % per_client);
            placed[client] += 1;
            let cells = editable_cells(&model);
            if cells.is_empty() {
                return Err(format!("tenant {stem} has no editable discrete cell"));
            }
            let nudges = weight_nudges(&model, &mut rng);
            if kind == Kind::ScreeningLarge && nudges.is_empty() {
                return Err(format!("tenant {stem} has no feasible weight nudge"));
            }
            tenants.push(Tenant {
                name: name_on_shard(&router, &stem, shard),
                model,
                client,
                shard,
                cells,
                nudges,
            });
        }
        Ok(Workload {
            kind,
            tenants,
            clients,
            config,
            durable: kind == Kind::ChurnDurable,
            seed,
        })
    }

    pub fn shards(&self) -> usize {
        self.config.shards.max(1)
    }

    pub fn edit_request(&self, round: &Round) -> Request {
        let tenant = &self.tenants[round.tenant];
        let session = tenant.name.clone();
        match round.edit {
            Edit::Perf {
                alternative,
                cell,
                level,
            } => Request::SetPerf {
                session,
                alternative: alternative as usize,
                attr: tenant.cells[usize::from(cell)].0,
                perf: Perf::level(usize::from(level)),
            },
            Edit::Weight { nudge, widen } => {
                let nudge = tenant.nudges[usize::from(nudge)];
                Request::SetWeight {
                    session,
                    objective: nudge.objective,
                    weight: if widen { nudge.widened } else { nudge.original },
                }
            }
        }
    }

    pub fn read_request(&self, round: &Round) -> Request {
        let session = self.tenants[round.tenant].name.clone();
        match round.read {
            Read::Analyze => Request::Analyze { session },
            Read::Cycle => Request::DiscardCycle { session },
            Read::Snapshot => Request::Snapshot { session },
        }
    }

    /// Tenant indices of `client`, in creation order.
    pub fn tenants_of(&self, client: usize) -> Vec<usize> {
        (0..self.tenants.len())
            .filter(|&t| self.tenants[t].client == client)
            .collect()
    }
}

/// A client's seeded round generator.
#[derive(Debug)]
pub struct Plan {
    kind: Kind,
    tenants: Vec<usize>,
    rng: Rng,
    /// Edits issued so far, per tenant index.
    edits: Vec<u64>,
    /// Per tenant index: the nudge currently applied, if any.
    nudged: Vec<Option<u16>>,
    turn: usize,
}

impl Plan {
    pub fn new(w: &Workload, client: usize) -> Plan {
        Plan {
            kind: w.kind,
            tenants: w.tenants_of(client),
            rng: Rng::new(sub_seed(w.seed, TAG_PLANS + client as u64)),
            edits: vec![0; w.tenants.len()],
            nudged: vec![None; w.tenants.len()],
            turn: 0,
        }
    }

    /// One round on each of this client's tenants, in creation order.
    pub fn warm_up(&mut self, w: &Workload) -> Vec<Round> {
        self.tenants
            .clone()
            .into_iter()
            .map(|t| self.round_for(w, t))
            .collect()
    }

    pub fn next(&mut self, w: &Workload) -> Round {
        let tenant = match self.kind {
            // `screening-large` alternates its tenants on each connection.
            Kind::ScreeningLarge => {
                self.turn += 1;
                self.tenants[(self.turn - 1) % self.tenants.len()]
            }
            Kind::WhatifSmall | Kind::ChurnDurable => {
                self.tenants[self.rng.below(self.tenants.len())]
            }
        };
        self.round_for(w, tenant)
    }

    fn round_for(&mut self, w: &Workload, t: usize) -> Round {
        let tenant = &w.tenants[t];
        self.edits[t] += 1;
        let weight_turn =
            self.kind == Kind::ScreeningLarge && self.edits[t].is_multiple_of(WEIGHT_EVERY);
        let edit = if weight_turn {
            match self.nudged[t].take() {
                Some(j) => Edit::Weight {
                    nudge: j,
                    widen: false,
                },
                None => {
                    let j = self.rng.below(tenant.nudges.len()) as u16;
                    self.nudged[t] = Some(j);
                    Edit::Weight {
                        nudge: j,
                        widen: true,
                    }
                }
            }
        } else {
            let cell = self.rng.below(tenant.cells.len());
            Edit::Perf {
                alternative: self.rng.below(tenant.model.num_alternatives()) as u32,
                cell: cell as u16,
                level: self.rng.below(tenant.cells[cell].1) as u16,
            }
        };
        let read = match self.kind {
            Kind::WhatifSmall => Read::Analyze,
            Kind::ScreeningLarge => Read::Cycle,
            Kind::ChurnDurable if self.rng.below(4) == 3 => Read::Snapshot,
            Kind::ChurnDurable => Read::Cycle,
        };
        Round {
            tenant: t,
            edit,
            read,
        }
    }
}
