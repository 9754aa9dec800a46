//! The trusted Anonymizer service.
//!
//! "In the multi-level reversible location privacy framework, a trusted
//! anonymizer obtains the raw location information from the mobile clients
//! with the user-defined profile." The service anonymizes owner locations,
//! stores each owner's keys and access-control profile locally ("managed
//! locally by the 'Anonymizer'"), and hands out keys to requesters
//! according to their trust degree.
//!
//! # Concurrency model
//!
//! The anonymization path is read-mostly: the road network, the built
//! engine (including RPLE's pre-assigned tables), and the configuration
//! are immutable after construction, and the traffic snapshot changes
//! only on [`AnonymizerService::update_snapshot`]. The service is
//! therefore built so the whole hot path works from `&self`:
//!
//! * immutable shared state ([`RoadNetwork`], [`Engine`],
//!   [`AnonymizerConfig`]) is plain fields read through `&self`;
//! * the occupancy snapshot sits behind an `RwLock<Arc<_>>` that readers
//!   clone out of in O(1) — [`update_snapshot`] swaps the `Arc` without
//!   blocking in-flight anonymizations;
//! * the owner-record and requester-registry maps are split 16 ways by
//!   key hash, each shard its own `RwLock`, so concurrent requests for
//!   different owners rarely contend;
//! * each owner's forward-secret [`ChainState`] lives in its own sharded
//!   map and advances under one shard write lock per anonymization —
//!   ratchet, journal write, key derivation, and epoch read are a single
//!   atomic step, and the in-memory state commits only after the
//!   [`ChainStore`] acknowledged the post-ratchet record (no receipt may
//!   reference an unjournaled epoch).
//!
//! Workers share the service via `Arc<AnonymizerService>`; no global
//! lock exists anywhere on the anonymize path.
//!
//! [`update_snapshot`]: AnonymizerService::update_snapshot

use crate::config::{AnonymizerConfig, EngineChoice};
use cloak::{
    anonymize_with_retry_scratch, AnonymizationOutcome, CloakError, CloakPayload, CloakScratch,
    PrivacyProfile, ReversibleEngine, RgeEngine, RpleEngine,
};
use keystream::{
    AccessControlProfile, AccessError, ChainState, ChainStore, JournalError, Key256, KeyManager,
    Level, MemStore, TrustDegree,
};
use mobisim::OccupancySnapshot;
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::{fanout, RoadNetwork, SegmentId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// SplitMix64 finalizer: the shared scrambler behind every derived seed
/// (the pipeline's per-tick request seeds, the partition's first seed
/// segment, the fault injector's draws). Callers XOR their inputs into
/// `z`; the finalizer decorrelates nearby inputs.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A built engine, either variant.
pub enum Engine {
    /// Reversible Global Expansion.
    Rge(RgeEngine),
    /// Reversible Pre-assignment-based Local Expansion.
    Rple(RpleEngine),
}

impl Engine {
    /// Builds the engine selected by `choice` for `net`.
    pub fn build(net: &RoadNetwork, choice: EngineChoice) -> Self {
        match choice {
            EngineChoice::Rge => Engine::Rge(RgeEngine::new()),
            EngineChoice::Rple { t_len } => Engine::Rple(RpleEngine::build(net, t_len)),
        }
    }

    /// The engine as a trait object.
    pub fn as_dyn(&self) -> &dyn ReversibleEngine {
        match self {
            Engine::Rge(e) => e,
            Engine::Rple(e) => e,
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Engine::{}", self.as_dyn().name())
    }
}

/// Record the anonymizer keeps per published cloak.
///
/// The payload sits behind an `Arc` shared with the
/// [`AnonymizeReceipt`] returned to the owner, so storing the record
/// costs a pointer bump instead of a deep payload clone.
#[derive(Debug, Clone)]
pub struct OwnerRecord {
    /// The owner identity.
    pub owner: String,
    /// The published payload (shared with the issued receipt).
    pub payload: Arc<CloakPayload>,
    /// The owner's per-level keys.
    pub keys: KeyManager,
    /// The owner's access-control profile.
    pub access: AccessControlProfile,
}

/// One owner's live state detached for a move between two services —
/// see [`AnonymizerService::export_owner`] /
/// [`AnonymizerService::import_owner`]. The continuous pipeline serves
/// every shard from one service and never moves an owner; the traced
/// replay of `perfbench` still does.
#[derive(Debug, Clone)]
pub struct OwnerHandoff {
    /// The migrating owner's identity.
    pub owner: String,
    /// The in-memory forward-secret chain at its current epoch (`None`
    /// for owners that were never anonymized).
    chain: Option<ChainState>,
    /// The stored record: payload, per-level keys, access-control
    /// profile (`None` for owners that were never anonymized).
    record: Option<OwnerRecord>,
}

impl OwnerHandoff {
    /// The exported chain epoch, when the owner has a chain.
    pub fn epoch(&self) -> Option<u64> {
        self.chain.as_ref().map(ChainState::epoch)
    }
}

/// Lock shards of every [`ShardedMap`]. More shards mean less lock
/// contention between concurrent requests for different owners; values
/// past the worker count buy little.
const LOCK_SHARDS: usize = 16;

/// A hash-sharded `String → V` map: each shard is an independent
/// `RwLock<HashMap>`, so operations on different keys rarely contend and
/// readers never block readers.
struct ShardedMap<V> {
    shards: Vec<RwLock<HashMap<String, V>>>,
}

impl<V> ShardedMap<V> {
    fn new() -> Self {
        ShardedMap {
            shards: (0..LOCK_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() % self.shards.len() as u64) as usize]
    }

    /// Inserts `value`, merging state from a previous entry under one
    /// shard write lock when the key already exists.
    fn insert_merging(&self, key: String, mut value: V, merge: impl FnOnce(&V, &mut V)) {
        let mut shard = self.shard(&key).write();
        if let Some(old) = shard.get(&key) {
            merge(old, &mut value);
        }
        shard.insert(key, value);
    }

    /// Inserts (when absent) then mutates the value, *persists* it, and
    /// commits + returns a clone, all under one shard write lock — the
    /// chain-ratchet step: concurrent advances of the same key serialize,
    /// so every caller observes a distinct post-advance state. The commit
    /// happens only after `persist` succeeds: on a persistence failure the
    /// in-memory value is untouched, so a later retry re-derives the same
    /// next state instead of skipping an epoch.
    fn advance_persist<E>(
        &self,
        key: &str,
        insert: impl FnOnce() -> V,
        step: impl FnOnce(&mut V),
        persist: impl FnOnce(&V) -> Result<(), E>,
    ) -> Result<V, E>
    where
        V: Clone,
    {
        let mut shard = self.shard(key).write();
        let mut next = match shard.get(key) {
            Some(v) => v.clone(),
            None => insert(),
        };
        step(&mut next);
        persist(&next)?;
        shard.insert(key.to_string(), next.clone());
        Ok(next)
    }

    /// Runs `f` on the value under the shard's read lock.
    fn read<T>(&self, key: &str, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.shard(key).read().get(key).map(f)
    }

    /// Runs `f` on the whole shard map holding `key`, under its write
    /// lock.
    fn with_shard<T>(&self, key: &str, f: impl FnOnce(&mut HashMap<String, V>) -> T) -> T {
        f(&mut self.shard(key).write())
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

/// A request's key draw: its epoch's level keys, nonce and epoch once its
/// chain advance was journaled, or the persistence error that withheld
/// the epoch.
pub(crate) type KeyedRequest = Result<(KeyManager, u64, u64), CloakError>;

/// One anonymization request for [`AnonymizerService::anonymize_batch`].
///
/// The `seed` deterministically drives chain-genesis entropy and the
/// nonce, so a batch run is bit-identical to sequential
/// [`AnonymizerService::anonymize_seeded`] calls with the same seeds in
/// the same order from the same service state — results do not depend on
/// how the batch was scheduled. (Per-level keys come from the owner's
/// forward-secret chain, so *re-running* a request advances the epoch
/// rather than reproducing the receipt.)
#[derive(Debug, Clone)]
pub struct AnonymizeRequest {
    /// The owner identity.
    pub owner: String,
    /// The owner's true segment.
    pub segment: SegmentId,
    /// Per-request profile (`None` uses the configured default).
    pub profile: Option<PrivacyProfile>,
    /// Seed for key generation and the nonce.
    pub seed: u64,
}

impl AnonymizeRequest {
    /// A request with the default profile.
    pub fn new(owner: impl Into<String>, segment: SegmentId, seed: u64) -> Self {
        AnonymizeRequest {
            owner: owner.into(),
            segment,
            profile: None,
            seed,
        }
    }
}

/// The trusted anonymization service.
///
/// The whole anonymize path works from `&self`, so workers share one
/// instance through an `Arc` with no external lock:
///
/// ```
/// use anonymizer::{AnonymizerConfig, AnonymizerService};
/// use mobisim::OccupancySnapshot;
/// use roadnet::{grid_city, SegmentId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = grid_city(6, 6, 100.0);
/// let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
/// let service = AnonymizerService::new(net, AnonymizerConfig::default());
/// service.update_snapshot(snapshot);
/// let mut os = keystream::entropy::OsEntropy::new()?; // unseeded: OS entropy
/// let receipt = service.anonymize_owner("alice", SegmentId(17), None, &mut os)?;
/// assert!(receipt.payload.region_size() >= 20);
/// # Ok(())
/// # }
/// ```
pub struct AnonymizerService {
    net: Arc<RoadNetwork>,
    engine: Engine,
    config: AnonymizerConfig,
    snapshot: RwLock<Arc<OccupancySnapshot>>,
    records: ShardedMap<OwnerRecord>,
    /// Reverse index: requester → every owner that granted it access,
    /// with the granted trust. Kept separate from the per-owner
    /// access-control profiles so key-distribution decisions stay an
    /// isolated, auditable layer.
    requesters: ShardedMap<HashMap<String, TrustDegree>>,
    /// Per-owner forward-secret chain states. Every anonymization
    /// ratchets the owner's chain one epoch forward and derives that
    /// epoch's level keys from the post-ratchet state; the pre-ratchet
    /// state is overwritten, so nothing the service retains can rebuild
    /// an earlier epoch's keys.
    chains: ShardedMap<ChainState>,
    /// Chain persistence: every ratchet advance is journaled through
    /// this store *before* the receipt is issued, so no receipt ever
    /// references an epoch the store has not acknowledged. The default
    /// [`MemStore`] keeps today's in-memory semantics; a
    /// [`keystream::FileStore`] makes chains survive a restart.
    store: Arc<dyn ChainStore>,
}

/// What the owner gets back from an anonymization: the payload to upload
/// plus run accounting.
#[derive(Debug, Clone)]
pub struct AnonymizeReceipt {
    /// The public payload (shared with the stored [`OwnerRecord`]).
    pub payload: Arc<CloakPayload>,
    /// Attempts needed (dead-ended walks retried under fresh nonces).
    pub attempts: u32,
    /// The full outcome (chain and per-level stats) for inspection.
    pub outcome: AnonymizationOutcome,
}

impl AnonymizerService {
    /// Creates the service over a road network with an in-memory chain
    /// store: chains live for the process lifetime only, exactly the
    /// pre-durability semantics.
    pub fn new(net: RoadNetwork, config: AnonymizerConfig) -> Self {
        Self::with_store(net, config, Arc::new(MemStore::new()))
            .expect("an empty MemStore never fails to load")
    }

    /// Creates the service over a persistent chain store, replaying the
    /// store's journal so every previously journaled owner chain resumes
    /// at its recorded `(state, epoch)` — restart preserves epoch
    /// monotonicity and captured-grant validity.
    ///
    /// # Errors
    ///
    /// Fails when the store's journal cannot be read.
    pub fn with_store(
        net: RoadNetwork,
        config: AnonymizerConfig,
        store: Arc<dyn ChainStore>,
    ) -> Result<Self, JournalError> {
        let net = Arc::new(net);
        let engine = Engine::build(&net, config.engine);
        let segment_count = net.segment_count();
        let service = AnonymizerService {
            net,
            engine,
            snapshot: RwLock::new(Arc::new(OccupancySnapshot::uniform(segment_count, 0))),
            records: ShardedMap::new(),
            requesters: ShardedMap::new(),
            chains: ShardedMap::new(),
            config,
            store,
        };
        for (owner, state) in service.store.load()? {
            service.chains.insert_merging(owner, state, |_, _| {});
        }
        Ok(service)
    }

    /// The network the service operates on.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// A shared handle to the network.
    pub fn network_arc(&self) -> Arc<RoadNetwork> {
        Arc::clone(&self.net)
    }

    /// The engine in use.
    pub fn engine(&self) -> &dyn ReversibleEngine {
        self.engine.as_dyn()
    }

    /// The service configuration.
    pub fn config(&self) -> &AnonymizerConfig {
        &self.config
    }

    /// Installs a fresh traffic snapshot (users per segment) by swapping
    /// the shared `Arc`; in-flight anonymizations keep reading the
    /// snapshot they started with and are never blocked.
    pub fn update_snapshot(&self, snapshot: OccupancySnapshot) {
        let _ = self.swap_snapshot(snapshot);
    }

    /// Like [`update_snapshot`](Self::update_snapshot), returning the
    /// previously installed snapshot. Once every in-flight reader drops
    /// its handle the caller can reclaim the buffer with
    /// `Arc::try_unwrap` and recapture into it
    /// ([`mobisim::Simulation::capture_into`]), so a cadence loop over
    /// the service's own snapshot allocates nothing.
    pub fn swap_snapshot(&self, snapshot: OccupancySnapshot) -> Arc<OccupancySnapshot> {
        std::mem::replace(&mut *self.snapshot.write(), Arc::new(snapshot))
    }

    /// The snapshot currently served to new requests (O(1) `Arc` clone).
    pub fn snapshot(&self) -> Arc<OccupancySnapshot> {
        Arc::clone(&self.snapshot.read())
    }

    /// Ratchets `owner`'s forward-secret chain one epoch, journals the
    /// post-ratchet state through the chain store, and returns it. A
    /// first-time owner gets a genesis state built from `entropy` (the
    /// chain then never touches caller entropy again); every call
    /// serializes under the chain shard's write lock, so concurrent
    /// anonymizations of one owner get distinct epochs.
    ///
    /// The journal write happens *before* the in-memory commit: on a
    /// store failure the chain is left where it was, no receipt is
    /// issued for the unjournaled epoch, and a retry re-derives the same
    /// epoch instead of skipping one.
    fn advance_chain(&self, owner: &str, entropy: Key256) -> Result<ChainState, CloakError> {
        self.chains
            .advance_persist(
                owner,
                || ChainState::genesis(owner, &entropy),
                ChainState::ratchet,
                |next| self.store.record(owner, next),
            )
            .map_err(|e| CloakError::Persistence(format!("owner {owner}: {e}")))
    }

    /// The owner's current chain epoch (count of anonymizations so far),
    /// or `None` for owners never anonymized. Receipts carry their epoch
    /// in [`CloakPayload::epoch`].
    pub fn owner_epoch(&self, owner: &str) -> Option<u64> {
        self.chains.read(owner, ChainState::epoch)
    }

    /// Anonymizes `owner`'s location with `profile` (or the default
    /// profile), auto-generating keys — the GUI's 'Auto key generation'.
    /// Stores the owner record for later key fetches.
    ///
    /// The caller's `rng` seeds the owner's forward-secret chain on first
    /// use (256 bits of entropy) and supplies the per-request nonce; the
    /// per-level keys come from the chain's post-ratchet epoch state, so
    /// re-anonymizing rotates keys forward and erases the prior epoch's
    /// secret. For pinned randomness use
    /// [`anonymize_seeded`](Self::anonymize_seeded).
    ///
    /// # Errors
    ///
    /// Propagates [`CloakError`] when the requirement cannot be met.
    pub fn anonymize_owner<R: Rng + ?Sized>(
        &self,
        owner: &str,
        user_segment: SegmentId,
        profile: Option<&PrivacyProfile>,
        rng: &mut R,
    ) -> Result<AnonymizeReceipt, CloakError> {
        let levels = profile
            .unwrap_or(&self.config.default_profile)
            .level_count();
        let keyed = self.draw_keys(owner, levels, rng);
        self.issue_keyed(
            &self.snapshot(),
            owner,
            user_segment,
            profile,
            &keyed,
            &mut CloakScratch::new(),
        )
    }

    /// Like [`anonymize_owner`](Self::anonymize_owner) with the request's
    /// randomness pinned by `seed`. Reproducibility is per *service
    /// history*, not per call: two identically-configured services fed
    /// the same request sequence produce bit-identical receipt streams,
    /// but repeating a request on one service ratchets the owner's chain
    /// and yields a fresh epoch — that asymmetry is the forward-secrecy
    /// contract. Key entropy is bounded by the 64-bit seed — use
    /// [`anonymize_owner`](Self::anonymize_owner) with a strong RNG when
    /// key secrecy matters.
    ///
    /// # Errors
    ///
    /// Propagates [`CloakError`] when the requirement cannot be met.
    pub fn anonymize_seeded(
        &self,
        owner: &str,
        user_segment: SegmentId,
        profile: Option<&PrivacyProfile>,
        seed: u64,
    ) -> Result<AnonymizeReceipt, CloakError> {
        self.anonymize_owner(
            owner,
            user_segment,
            profile,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    /// Stores the owner record of a cloak outcome (whose payload carries
    /// its chain epoch) and returns the receipt; record and receipt share
    /// one payload allocation. Re-anonymizing rotates payload and keys in
    /// the stored record, under its shard's lock, and keeps the owner's
    /// access-control profile, so existing requester grants (and the
    /// requester registry audit view) stay consistent. A stored record of
    /// a later epoch stays: epochs grow in request order, so batch
    /// workers that finish an owner's requests out of order still leave
    /// the record of its last successful request, as sequential calls do.
    fn record_receipt(
        &self,
        owner: &str,
        keys: KeyManager,
        (outcome, attempts): (AnonymizationOutcome, u32),
    ) -> AnonymizeReceipt {
        let epoch = outcome.payload.epoch;
        let payload = Arc::new(outcome.payload.clone());
        self.records
            .with_shard(owner, |records| match records.get_mut(owner) {
                Some(record) if record.payload.epoch > epoch => {}
                Some(record) => {
                    record.payload = Arc::clone(&payload);
                    record.keys = keys;
                }
                None => {
                    let record = OwnerRecord {
                        owner: owner.to_string(),
                        payload: Arc::clone(&payload),
                        keys,
                        access: AccessControlProfile::new(),
                    };
                    records.insert(owner.to_string(), record);
                }
            });
        AnonymizeReceipt {
            payload,
            attempts,
            outcome,
        }
    }

    /// Draws one request's randomness from `rng` — 256 bits of
    /// chain-genesis entropy, then the nonce — ratchets `owner`'s chain
    /// and derives the new epoch's `levels` level keys. A chain advance
    /// that could not be journaled yields its [`CloakError::Persistence`]
    /// instead.
    fn draw_keys<R: Rng + ?Sized>(&self, owner: &str, levels: usize, rng: &mut R) -> KeyedRequest {
        let entropy = Key256::generate(rng);
        let nonce: u64 = rng.gen();
        let chain = self.advance_chain(owner, entropy)?;
        Ok((chain.level_keys(levels), nonce, chain.epoch()))
    }

    /// One request's chain step: ratchets its owner's chain and captures
    /// the request's `(level keys, nonce, epoch)`, drawn from its seed.
    /// Batches run it for every request **in request order** before any
    /// parallel dispatch: the epoch an owner's n-th request gets must not
    /// depend on worker scheduling. A request whose chain advance could
    /// not be journaled carries its [`CloakError::Persistence`] instead
    /// of keys: it never reaches the cloak and no receipt is issued for
    /// it.
    pub(crate) fn derive_keys(&self, request: &AnonymizeRequest) -> KeyedRequest {
        let profile = request
            .profile
            .as_ref()
            .unwrap_or(&self.config.default_profile);
        self.draw_keys(
            &request.owner,
            profile.level_count(),
            &mut StdRng::seed_from_u64(request.seed),
        )
    }

    /// The one cloak step every request goes through: turns a keyed
    /// request into a receipt. A persistence error from the key draw
    /// passes straight through; otherwise the owner's segment is cloaked
    /// under the epoch's level keys for `profile` (or the default
    /// profile) against `snapshot` with the worker's `scratch`, and the
    /// receipt is recorded.
    fn issue_keyed(
        &self,
        snapshot: &OccupancySnapshot,
        owner: &str,
        segment: SegmentId,
        profile: Option<&PrivacyProfile>,
        keyed: &KeyedRequest,
        scratch: &mut CloakScratch,
    ) -> Result<AnonymizeReceipt, CloakError> {
        let (keys, nonce, epoch) = keyed.as_ref().map_err(Clone::clone)?;
        let profile = profile.unwrap_or(&self.config.default_profile);
        let key_vec: Vec<Key256> = keys.iter().map(|(_, k)| k).collect();
        let cloaked = anonymize_with_retry_scratch(
            &self.net,
            snapshot,
            segment,
            profile,
            &key_vec,
            *nonce,
            *epoch,
            self.engine.as_dyn(),
            self.config.max_attempts,
            scratch,
        )?;
        Ok(self.record_receipt(owner, keys.clone(), cloaked))
    }

    /// Cloaks one request against `snapshot`, the handle the caller took
    /// for its whole batch, with its [`derive_keys`](Self::derive_keys)
    /// step's result and the worker's `scratch`, so receipts are
    /// bit-identical to the sequential path.
    pub(crate) fn issue_request(
        &self,
        snapshot: &OccupancySnapshot,
        request: &AnonymizeRequest,
        keyed: &KeyedRequest,
        scratch: &mut CloakScratch,
    ) -> Result<AnonymizeReceipt, CloakError> {
        self.issue_keyed(
            snapshot,
            &request.owner,
            request.segment,
            request.profile.as_ref(),
            keyed,
            scratch,
        )
    }

    /// Anonymizes a batch of requests, fanned across worker threads in
    /// chunks. Results keep request order, and — because chain epochs
    /// are assigned in a sequential pre-pass and every request carries
    /// its own seed — are identical to running
    /// [`anonymize_seeded`](Self::anonymize_seeded) sequentially from the
    /// same service state.
    ///
    /// The batch reads the served snapshot once and cloaks every chunk
    /// against that handle. Each worker cloaks its chunks request by
    /// request, as [`anonymize_owner`](Self::anonymize_owner) does, with
    /// one [`CloakScratch`]. The scratch is built per worker per call, so
    /// every call allocates one full-map region bitset per worker;
    /// requests within the call reset it in O(previous region). (The
    /// continuous pipeline runs the same keyed halves over every shard's
    /// batch at once, with scratch it keeps across ticks.)
    ///
    /// [`AnonymizerConfig::batch_parallelism`] sets the worker count
    /// (`0` = all available cores), capped at the request count; the
    /// calling thread is one of the workers. Workers store owner records
    /// as they finish, and a stored record gives way only to one of a
    /// later epoch, so a repeated owner keeps the record sequential calls
    /// leave.
    pub fn anonymize_batch(
        &self,
        requests: &[AnonymizeRequest],
    ) -> Vec<Result<AnonymizeReceipt, CloakError>> {
        let workers = fanout::workers(self.config.batch_parallelism).min(requests.len().max(1));
        // Chain pre-pass first: epochs are assigned in request order
        // before any worker runs, so batch scheduling can never reorder
        // an owner's ratchet sequence.
        let keyed: Vec<KeyedRequest> = requests.iter().map(|r| self.derive_keys(r)).collect();
        let snapshot = self.snapshot();
        let chunk = fanout::chunk_len(requests.len(), workers);
        let mut scratch: Vec<CloakScratch> = (0..workers).map(|_| CloakScratch::new()).collect();
        let runs = fanout::fan_out(
            &mut scratch,
            requests.len().div_ceil(chunk),
            |scratch, c| {
                let run = c * chunk..requests.len().min((c + 1) * chunk);
                requests[run.clone()]
                    .iter()
                    .zip(&keyed[run])
                    .map(|(request, keyed)| self.issue_request(&snapshot, request, keyed, scratch))
                    .collect::<Vec<_>>()
            },
        );
        runs.into_iter().flatten().collect()
    }

    /// The stored record for an owner (a clone; records are shared across
    /// shards and threads).
    pub fn owner_record(&self, owner: &str) -> Option<OwnerRecord> {
        self.records.read(owner, OwnerRecord::clone)
    }

    /// Number of owners with stored records.
    pub fn owner_count(&self) -> usize {
        self.records.len()
    }

    /// Detaches an owner's live state to move it to another service:
    /// the in-memory forward-secret chain, the stored record (payload,
    /// keys, access-control profile) and the owner's entries in the
    /// requester registry. All of it is *removed* from this service —
    /// after the export the owner lives nowhere until
    /// [`import_owner`](Self::import_owner) lands the state on the
    /// receiving service. Returns `None` for owners this service never
    /// saw.
    ///
    /// The journaled chain copy is untouched: when both services share
    /// one [`ChainStore`], the receiver's next ratchet journals over the
    /// same owner key, so crash recovery sees one continuous chain.
    pub fn export_owner(&self, owner: &str) -> Option<OwnerHandoff> {
        let chain = self.chains.with_shard(owner, |chains| chains.remove(owner));
        let record = self.records.with_shard(owner, |records| {
            records
                .remove(owner)
                .inspect(|record| self.sync_grants(record, false))
        });
        if chain.is_none() && record.is_none() {
            return None;
        }
        Some(OwnerHandoff {
            owner: owner.to_string(),
            chain,
            record,
        })
    }

    /// Lands an [`export_owner`](Self::export_owner) handoff on this
    /// service. The imported chain resumes at its exported epoch — the
    /// next anonymization ratchets strictly forward, so epoch
    /// monotonicity holds across any number of moves — and the imported
    /// record keeps every captured requester grant working through the
    /// normal [`fetch_keys`](Self::fetch_keys) path, with its grants
    /// entered in this service's requester registry.
    pub fn import_owner(&self, handoff: OwnerHandoff) {
        let OwnerHandoff {
            owner,
            chain,
            record,
        } = handoff;
        if let Some(chain) = chain {
            self.chains.insert_merging(owner.clone(), chain, |_, _| {});
        }
        if let Some(record) = record {
            self.records.with_shard(&owner, |records| {
                if let Some(replaced) = records.insert(owner.clone(), record) {
                    self.sync_grants(&replaced, false);
                }
                self.sync_grants(&records[&owner], true);
            });
        }
    }

    /// Enters (`add`) or removes every grant of `record` in the
    /// requester registry, dropping entries left empty. Callers hold the
    /// record's records-shard write lock (lock order records →
    /// requesters).
    fn sync_grants(&self, record: &OwnerRecord, add: bool) {
        for (requester, trust) in record.access.requesters() {
            self.requesters.with_shard(requester, |registry| {
                let grants = registry.entry(requester.to_string()).or_default();
                if add {
                    grants.insert(record.owner.clone(), trust);
                } else {
                    grants.remove(&record.owner);
                }
                if grants.is_empty() {
                    registry.remove(requester);
                }
            });
        }
    }

    /// Registers a requester in an owner's access-control profile and in
    /// the requester registry.
    ///
    /// Returns `false` when the owner is unknown.
    pub fn register_requester(
        &self,
        owner: &str,
        requester: &str,
        trust: TrustDegree,
        floor: Level,
    ) -> bool {
        // The registry update runs while the owner's record shard is
        // still write-locked, so concurrent re-registrations of the same
        // (owner, requester) pair cannot leave the audit view
        // disagreeing with the access profile. Lock order is always
        // records-shard → requesters-shard; nothing takes them the other
        // way around.
        self.records.with_shard(owner, |records| {
            let Some(rec) = records.get_mut(owner) else {
                return false;
            };
            rec.access.register_requester(requester, trust);
            rec.access.set_trust_floor(trust, floor);
            self.sync_grants(rec, true);
            true
        })
    }

    /// Audit view of the requester registry: every owner that granted
    /// `requester` access, with the granted trust degree (unordered).
    pub fn requester_grants(&self, requester: &str) -> Vec<(String, TrustDegree)> {
        self.requesters
            .read(requester, |grants| {
                grants.iter().map(|(o, &t)| (o.clone(), t)).collect()
            })
            .unwrap_or_default()
    }

    /// Number of distinct requesters registered with any owner.
    pub fn requester_count(&self) -> usize {
        self.requesters.len()
    }

    /// A requester fetches the keys it is entitled to for an owner's
    /// cloak — "they request the location data owners for access keys,
    /// which is managed locally by the 'Anonymizer'".
    ///
    /// # Errors
    ///
    /// Fails for unknown owners (mapped to
    /// [`AccessError::UnknownRequester`] semantics at the owner level) or
    /// per the owner's access-control profile.
    pub fn fetch_keys(
        &self,
        owner: &str,
        requester: &str,
    ) -> Result<Vec<(Level, Key256)>, AccessError> {
        self.records
            .read(owner, |rec| rec.access.keys_for(&rec.keys, requester))
            .unwrap_or_else(|| Err(AccessError::UnknownRequester(format!("owner:{owner}"))))
    }

    /// Per-level cumulative regions of an outcome, for rendering: level 0
    /// first (the seed segment), each following level adding its span.
    pub fn level_regions(outcome: &AnonymizationOutcome) -> Vec<(Level, Vec<SegmentId>)> {
        let seed = {
            // The seed is the one region segment that is not in the chain.
            let chain: std::collections::HashSet<SegmentId> =
                outcome.chain.iter().copied().collect();
            outcome
                .payload
                .segments
                .iter()
                .copied()
                .find(|s| !chain.contains(s))
                .expect("the seed segment is in the region")
        };
        let mut regions = vec![(Level(0), vec![seed])];
        let mut cursor = 0usize;
        let mut acc = vec![seed];
        for (i, meta) in outcome.payload.levels.iter().enumerate() {
            let next = cursor + meta.count as usize;
            acc.extend(outcome.chain[cursor..next].iter().copied());
            cursor = next;
            regions.push((Level(i as u8 + 1), acc.clone()));
        }
        regions
    }
}

impl std::fmt::Debug for AnonymizerService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnonymizerService")
            .field("engine", &self.engine)
            .field("owners", &self.records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use roadnet::grid_city;
    use std::sync::atomic::Ordering;

    fn service() -> AnonymizerService {
        let net = grid_city(7, 7, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let s = AnonymizerService::new(net, AnonymizerConfig::default());
        s.update_snapshot(snapshot);
        s
    }

    #[test]
    fn anonymize_and_store_record() {
        let s = service();
        let mut rng = StdRng::seed_from_u64(1);
        let receipt = s
            .anonymize_owner("alice", SegmentId(40), None, &mut rng)
            .unwrap();
        assert!(receipt.payload.region_size() >= 20);
        assert!(receipt.attempts >= 1);
        let rec = s.owner_record("alice").unwrap();
        assert_eq!(rec.payload, receipt.payload);
        assert_eq!(rec.keys.level_count(), 3);
        assert!(s.owner_record("bob").is_none());
        assert_eq!(s.owner_count(), 1);
    }

    #[test]
    fn key_fetch_respects_access_control() {
        let s = service();
        let mut rng = StdRng::seed_from_u64(2);
        s.anonymize_owner("alice", SegmentId(40), None, &mut rng)
            .unwrap();
        assert!(s.register_requester("alice", "police", TrustDegree(10), Level(0)));
        assert!(s.register_requester("alice", "friend", TrustDegree(5), Level(2)));
        assert!(!s.register_requester("ghost", "police", TrustDegree(10), Level(0)));

        let police = s.fetch_keys("alice", "police").unwrap();
        assert_eq!(police.len(), 3);
        assert_eq!(police[0].0, Level(3));
        let friend = s.fetch_keys("alice", "friend").unwrap();
        assert_eq!(friend.len(), 1);
        assert!(s.fetch_keys("alice", "stranger").is_err());
        assert!(s.fetch_keys("ghost", "police").is_err());
    }

    #[test]
    fn requester_registry_tracks_grants() {
        let s = service();
        let mut rng = StdRng::seed_from_u64(7);
        s.anonymize_owner("alice", SegmentId(40), None, &mut rng)
            .unwrap();
        s.anonymize_owner("bob", SegmentId(12), None, &mut rng)
            .unwrap();
        s.register_requester("alice", "police", TrustDegree(10), Level(0));
        s.register_requester("bob", "police", TrustDegree(9), Level(1));
        s.register_requester("alice", "friend", TrustDegree(5), Level(2));
        // Re-registration updates in place rather than duplicating.
        s.register_requester("alice", "police", TrustDegree(8), Level(1));

        let mut grants = s.requester_grants("police");
        grants.sort();
        assert_eq!(
            grants,
            vec![
                ("alice".to_string(), TrustDegree(8)),
                ("bob".to_string(), TrustDegree(9)),
            ]
        );
        assert_eq!(s.requester_grants("friend").len(), 1);
        assert!(s.requester_grants("nobody").is_empty());
        assert_eq!(s.requester_count(), 2);
    }

    #[test]
    fn reanonymizing_rotates_keys_but_keeps_grants() {
        let s = service();
        let mut rng = StdRng::seed_from_u64(11);
        s.anonymize_owner("alice", SegmentId(40), None, &mut rng)
            .unwrap();
        s.register_requester("alice", "police", TrustDegree(10), Level(0));
        let old_keys = s.fetch_keys("alice", "police").unwrap();

        // Fresh cloak for the same owner: payload and keys rotate, the
        // access grant (and the registry audit view) survive.
        s.anonymize_owner("alice", SegmentId(12), None, &mut rng)
            .unwrap();
        let new_keys = s.fetch_keys("alice", "police").unwrap();
        assert_eq!(new_keys.len(), 3);
        assert_ne!(old_keys, new_keys, "keys must rotate");
        assert_eq!(
            s.requester_grants("police"),
            vec![("alice".to_string(), TrustDegree(10))]
        );
    }

    #[test]
    fn record_of_a_later_epoch_outlives_an_earlier_one() {
        // Three requests of one owner keyed in order (epochs 1 to 3) and
        // cloaked out of order, as parallel batch workers may finish
        // them: the epoch-3 record stays, with the grant made after it.
        let s = service();
        let requests: Vec<AnonymizeRequest> = (0..3)
            .map(|i| AnonymizeRequest::new("alice", SegmentId(40), 7 + i))
            .collect();
        let keyed: Vec<KeyedRequest> = requests.iter().map(|r| s.derive_keys(r)).collect();
        let snapshot = s.snapshot();
        let mut scratch = CloakScratch::new();
        let mut cloak = |i: usize| {
            s.issue_request(&snapshot, &requests[i], &keyed[i], &mut scratch)
                .unwrap()
        };
        let third = cloak(2);
        assert_eq!(third.payload.epoch, 3);
        s.register_requester("alice", "police", TrustDegree(10), Level(0));
        let keys = s.fetch_keys("alice", "police").unwrap();
        for earlier in [1, 0] {
            assert_eq!(cloak(earlier).payload.epoch, earlier as u64 + 1);
            assert_eq!(s.owner_record("alice").unwrap().payload, third.payload);
            assert_eq!(s.fetch_keys("alice", "police").unwrap(), keys);
        }
        // A later epoch replaces it and keeps the grant.
        let fourth = s.anonymize_seeded("alice", SegmentId(12), None, 9).unwrap();
        assert_eq!(fourth.payload.epoch, 4);
        assert_eq!(s.owner_record("alice").unwrap().payload, fourth.payload);
        assert_ne!(s.fetch_keys("alice", "police").unwrap(), keys);
    }

    #[test]
    fn moving_an_owner_moves_its_requester_registry_entries() {
        let (a, b) = (service(), service());
        for (owner, seed) in [("alice", 1), ("bob", 2)] {
            a.anonymize_seeded(owner, SegmentId(40), None, seed)
                .unwrap();
        }
        a.register_requester("alice", "police", TrustDegree(10), Level(0));
        a.register_requester("bob", "police", TrustDegree(9), Level(0));
        a.register_requester("alice", "friend", TrustDegree(5), Level(2));
        b.import_owner(a.export_owner("alice").expect("alice lives on a"));
        let grant = |owner: &str, trust| [(owner.to_string(), TrustDegree(trust))];
        assert_eq!(a.requester_grants("police"), grant("bob", 9));
        assert_eq!(a.requester_count(), 1, "friend's emptied entry is dropped");
        assert_eq!(b.requester_grants("police"), grant("alice", 10));
        assert_eq!(b.requester_grants("friend"), grant("alice", 5));
        assert_eq!(b.requester_count(), 2);
        assert!(a.fetch_keys("alice", "police").is_err());
        assert_eq!(b.fetch_keys("alice", "police").unwrap().len(), 3);
        let next = b.anonymize_seeded("alice", SegmentId(40), None, 3).unwrap();
        assert_eq!(next.payload.epoch, 2, "the chain moved with the owner");
    }

    #[test]
    fn seeded_anonymization_is_deterministic_across_services() {
        // The determinism contract is per service history: two
        // identically-configured services replay the same stream…
        let a = service()
            .anonymize_seeded("alice", SegmentId(40), None, 1234)
            .unwrap();
        let b = service()
            .anonymize_seeded("alice", SegmentId(40), None, 1234)
            .unwrap();
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.payload.epoch, 1, "first receipt carries epoch 1");
        // …while repeating the request on ONE service ratchets the chain:
        // fresh epoch, fresh keys, fresh receipt.
        let s = service();
        let first = s
            .anonymize_seeded("alice", SegmentId(40), None, 1234)
            .unwrap();
        let again = s
            .anonymize_seeded("alice", SegmentId(40), None, 1234)
            .unwrap();
        assert_eq!(again.payload.epoch, 2);
        assert_ne!(
            first.payload, again.payload,
            "ratchet must rotate the receipt"
        );
        // Different seeds still diverge.
        let c = service()
            .anonymize_seeded("alice", SegmentId(40), None, 1235)
            .unwrap();
        assert_ne!(a.payload.segments, c.payload.segments);
    }

    #[test]
    fn batch_matches_sequential() {
        let s = service();
        let requests: Vec<AnonymizeRequest> = (0..24)
            .map(|i| {
                AnonymizeRequest::new(format!("owner-{i}"), SegmentId(i * 3 % 80), 100 + i as u64)
            })
            .collect();
        let batch = s.anonymize_batch(&requests);
        // Sequential replay must run on a fresh service: each owner's
        // chain has to sit at the same (genesis) state it had in the
        // batch run.
        let fresh = service();
        for (req, result) in requests.iter().zip(&batch) {
            let solo = fresh
                .anonymize_seeded(&req.owner, req.segment, None, req.seed)
                .unwrap();
            assert_eq!(
                result.as_ref().unwrap().payload,
                solo.payload,
                "{}",
                req.owner
            );
        }
        assert_eq!(s.owner_count(), 24);
    }

    #[test]
    fn forward_secrecy_across_reanonymizations() {
        use crate::deanonymizer::Deanonymizer;
        let s = service();
        let early = s
            .anonymize_seeded("alice", SegmentId(40), None, 77)
            .unwrap();
        assert_eq!(early.payload.epoch, 1);
        s.register_requester("alice", "auditor", TrustDegree(10), Level(0));
        // The auditor fetches epoch 1's keys while they are current.
        let granted = s.fetch_keys("alice", "auditor").unwrap();

        // Re-anonymization ratchets the chain forward: the service's own
        // stored keys now belong to epoch 2 and the epoch-1 state is gone.
        let late = s
            .anonymize_seeded("alice", SegmentId(12), None, 78)
            .unwrap();
        assert_eq!(late.payload.epoch, early.payload.epoch + 1);
        assert_eq!(s.owner_epoch("alice"), Some(2));
        let current = s.fetch_keys("alice", "auditor").unwrap();
        assert_ne!(granted, current, "ratchet must rotate the granted keys");

        let dean = Deanonymizer::new(
            s.network_arc(),
            Engine::build(s.network(), s.config().engine),
        );
        // The captured grant stays good for its own epoch forever…
        let view = dean.reduce(&early.payload, &granted).unwrap();
        assert_eq!(view.segments, vec![SegmentId(40)]);
        // …but nothing the service retains after the ratchet opens the
        // earlier receipt: current keys fail against the epoch-1 payload.
        assert!(
            dean.reduce(&early.payload, &current).is_err(),
            "post-ratchet keys must not deanonymize an earlier epoch"
        );
    }

    #[test]
    fn batch_reports_per_request_errors() {
        let s = service();
        let requests = vec![
            AnonymizeRequest::new("good", SegmentId(10), 1),
            AnonymizeRequest::new("bad", SegmentId(9999), 2),
        ];
        let results = s.anonymize_batch(&requests);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CloakError::UnknownSegment(_))));
    }

    #[test]
    fn snapshot_swap_does_not_disturb_existing_handles() {
        let s = service();
        let before = s.snapshot();
        s.update_snapshot(OccupancySnapshot::uniform(s.network().segment_count(), 9));
        assert_eq!(before.users_on(SegmentId(0)), 1, "old handle unchanged");
        assert_eq!(s.snapshot().users_on(SegmentId(0)), 9);
    }

    #[test]
    fn rple_engine_choice_builds() {
        let net = grid_city(5, 5, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let s = AnonymizerService::new(
            net,
            AnonymizerConfig {
                engine: EngineChoice::Rple { t_len: 8 },
                ..Default::default()
            },
        );
        s.update_snapshot(snapshot);
        assert_eq!(s.engine().name(), "RPLE");
        let mut rng = StdRng::seed_from_u64(3);
        let receipt = s
            .anonymize_owner("carol", SegmentId(20), None, &mut rng)
            .unwrap();
        assert!(receipt.payload.region_size() >= 20);
    }

    #[test]
    fn level_regions_are_monotone() {
        let s = service();
        let mut rng = StdRng::seed_from_u64(4);
        let receipt = s
            .anonymize_owner("alice", SegmentId(30), None, &mut rng)
            .unwrap();
        let regions = AnonymizerService::level_regions(&receipt.outcome);
        assert_eq!(regions.len(), 4); // L0..L3
        assert_eq!(regions[0].1, vec![SegmentId(30)]);
        for w in regions.windows(2) {
            let (small, big) = (&w[0].1, &w[1].1);
            assert!(big.len() >= small.len());
            for seg in small.iter() {
                assert!(big.contains(seg), "levels must nest");
            }
        }
        // Top level covers the whole payload region.
        let mut top = regions.last().unwrap().1.clone();
        top.sort();
        assert_eq!(top, receipt.payload.segments);
    }

    #[test]
    fn debug_impls() {
        let s = service();
        let dbg = format!("{s:?}");
        assert!(dbg.contains("RGE"));
    }

    /// A store that fails every `record` while `broken` — the minimal
    /// stand-in for a full disk / yanked volume.
    #[derive(Debug)]
    struct BreakableStore {
        inner: MemStore,
        broken: std::sync::atomic::AtomicBool,
    }

    impl BreakableStore {
        fn new(broken: bool) -> Self {
            BreakableStore {
                inner: MemStore::new(),
                broken: std::sync::atomic::AtomicBool::new(broken),
            }
        }
    }

    impl ChainStore for BreakableStore {
        fn record(&self, owner: &str, state: &ChainState) -> Result<(), JournalError> {
            if self.broken.load(Ordering::Relaxed) {
                return Err(JournalError::Injected("record refused".into()));
            }
            self.inner.record(owner, state)
        }
        fn load(&self) -> Result<Vec<(String, ChainState)>, JournalError> {
            self.inner.load()
        }
        fn compact(&self) -> Result<(), JournalError> {
            self.inner.compact()
        }
    }

    fn service_with(store: Arc<dyn ChainStore>) -> AnonymizerService {
        let net = grid_city(7, 7, 100.0);
        let snapshot = OccupancySnapshot::uniform(net.segment_count(), 1);
        let s = AnonymizerService::with_store(net, AnonymizerConfig::default(), store).unwrap();
        s.update_snapshot(snapshot);
        s
    }

    #[test]
    fn journal_failure_withholds_receipt_and_preserves_epoch() {
        let store = Arc::new(BreakableStore::new(true));
        let s = service_with(Arc::clone(&store) as Arc<dyn ChainStore>);
        let err = s
            .anonymize_seeded("alice", SegmentId(40), None, 7)
            .unwrap_err();
        assert!(matches!(err, CloakError::Persistence(_)));
        assert!(err.to_string().contains("receipt withheld"));
        // The failed advance committed nothing: no epoch, no record.
        assert_eq!(s.owner_epoch("alice"), None);
        assert!(s.owner_record("alice").is_none());
        // After the store heals, the retry gets epoch 1 — no hole.
        store.broken.store(false, Ordering::Relaxed);
        let receipt = s.anonymize_seeded("alice", SegmentId(40), None, 7).unwrap();
        assert_eq!(receipt.payload.epoch, 1);
    }

    #[test]
    fn batch_carries_persistence_errors_without_reaching_the_cloak() {
        let store = Arc::new(BreakableStore::new(true));
        let s = service_with(Arc::clone(&store) as Arc<dyn ChainStore>);
        let requests: Vec<AnonymizeRequest> = (0..6)
            .map(|i| AnonymizeRequest::new(format!("o{i}"), SegmentId(10 + i), 50 + i as u64))
            .collect();
        let results = s.anonymize_batch(&requests);
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(CloakError::Persistence(_)))));
        assert_eq!(s.owner_count(), 0, "no receipt ⇒ no stored record");
        // Heal mid-service: the same batch now succeeds at epoch 1 each.
        store.broken.store(false, Ordering::Relaxed);
        let results = s.anonymize_batch(&requests);
        for r in &results {
            assert_eq!(r.as_ref().unwrap().payload.epoch, 1);
        }
    }

    #[test]
    fn recovery_from_shared_store_continues_every_chain() {
        let store: Arc<dyn ChainStore> = Arc::new(MemStore::new());
        let first = service_with(Arc::clone(&store));
        for seed in 0..3 {
            first
                .anonymize_seeded("alice", SegmentId(40), None, seed)
                .unwrap();
        }
        first
            .anonymize_seeded("bob", SegmentId(12), None, 9)
            .unwrap();
        drop(first);

        // "Restart": a fresh service over the same store must resume
        // alice at epoch 3 and bob at epoch 1, not re-genesis them.
        let second = service_with(Arc::clone(&store));
        assert_eq!(second.owner_epoch("alice"), Some(3));
        assert_eq!(second.owner_epoch("bob"), Some(1));
        let next = second
            .anonymize_seeded("alice", SegmentId(40), None, 99)
            .unwrap();
        assert_eq!(next.payload.epoch, 4, "ratchet continues, no epoch reuse");
    }
}
