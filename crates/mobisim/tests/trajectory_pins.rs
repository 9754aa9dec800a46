//! Trajectory pinning: every car's motion under each named behavior
//! mix, tick by tick, on three maps.
//!
//! Each case folds every car's segment, offset bits and remaining route
//! into one FNV-1a digest per tick: once after `Simulation::new` and once
//! after each of [`STEPS`] steps. Equal digests mean equal generator
//! draws, equal destinations and equal routes, so a change to how trips
//! are drawn, routed or committed that alters any car's motion fails
//! here, and the failure names the first tick that moved.
//!
//! The maps:
//!
//! * `grid_city(8, 8, 100.0)`: equal-length ties everywhere;
//! * `city_map(7, 2000)`: a generated city, where the trip router runs
//!   with its landmark bound;
//! * two unconnected grids (8 × 8 and 3 × 3): trips whose draws land on
//!   the other grid are drawn again, and a car that draws no reachable
//!   junction in eight tries parks and draws again on the next step;
//! * a 4 × 4 grid with a tail of roads 1e308 m long: past the tail's
//!   first road a route's length overflows to infinity, so Dijkstra finds
//!   no route to a junction that roads do join, and the trip is drawn
//!   again.
//!
//! The constants were taken from the sequential planner that drew,
//! routed and assigned each trip in turn, before trip planning was
//! batched. Re-pin only for a deliberate change to the simulation's
//! semantics, and say so in the commit.

use mobisim::{BehaviorMix, SimConfig, Simulation};
use roadnet::{city_map, grid_city, JunctionId, Point, RoadNetwork, RoadNetworkBuilder};

/// Steps per case, after the setup digest.
const STEPS: usize = 40;

/// Seconds per step.
const DT: f64 = 10.0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0100_0000_01b3);
    }
    state
}

/// One digest over every car's segment, offset bits and remaining route.
fn tick_digest(sim: &Simulation) -> u64 {
    sim.cars().iter().fold(FNV_OFFSET, |mut h, car| {
        h = fnv_fold(h, &car.segment().0.to_le_bytes());
        h = fnv_fold(h, &car.position().offset.to_bits().to_le_bytes());
        h = fnv_fold(h, &(car.route().len() as u32).to_le_bytes());
        for s in car.route() {
            h = fnv_fold(h, &s.0.to_le_bytes());
        }
        h
    })
}

/// The setup digest followed by one digest per step.
fn trajectory(net: RoadNetwork, cars: usize, seed: u64, behavior: BehaviorMix) -> Vec<u64> {
    let mut sim = Simulation::new(
        net,
        SimConfig {
            cars,
            seed,
            behavior,
            ..Default::default()
        },
    );
    let mut digests = vec![tick_digest(&sim)];
    for _ in 0..STEPS {
        sim.step(DT);
        digests.push(tick_digest(&sim));
    }
    digests
}

/// An 8 × 8 and a 3 × 3 grid of 100 m roads, 2 km apart, with no road
/// between them.
fn two_grids() -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    for (side, x0) in [(8, 0.0), (3, 2_000.0)] {
        let grid = grid_city(side, side, 100.0);
        let first = b.junction_count() as u32;
        for j in grid.junctions() {
            let p = j.position();
            b.add_junction(Point::new(p.x + x0, p.y));
        }
        for seg in grid.segments() {
            let (a, c) = (JunctionId(seg.a().0 + first), JunctionId(seg.b().0 + first));
            b.add_segment(a, c).unwrap();
        }
    }
    b.build().unwrap()
}

/// A 4 × 4 grid of 100 m roads with a tail of three roads 1e308 m long
/// from its last corner. Any two tail roads add up to infinity, and the
/// map runs plain Dijkstra.
fn overflowing_tail() -> RoadNetwork {
    let grid = grid_city(4, 4, 100.0);
    let mut b = RoadNetworkBuilder::new();
    for j in grid.junctions() {
        b.add_junction(j.position());
    }
    for seg in grid.segments() {
        b.add_segment(seg.a(), seg.b()).unwrap();
    }
    let mut prev = JunctionId(grid.junction_count() as u32 - 1);
    for i in 1..=3 {
        let next = b.add_junction(Point::new(300.0 + 100.0 * f64::from(i), 300.0));
        b.add_segment_with_length(prev, next, 1e308).unwrap();
        prev = next;
    }
    b.build().unwrap()
}

fn mixes() -> [(&'static str, BehaviorMix); 4] {
    [
        ("uniform", BehaviorMix::uniform()),
        ("commuter_city", BehaviorMix::commuter_city()),
        ("taxi_fleet", BehaviorMix::taxi_fleet()),
        ("rush_hour", BehaviorMix::rush_hour()),
    ]
}

/// Compares each mix's trajectory with its pins, naming the first tick
/// that differs.
fn assert_pinned(
    map: &str,
    net: impl Fn() -> RoadNetwork,
    cars: usize,
    pins: &[[u64; STEPS + 1]; 4],
) {
    for ((name, mix), pinned) in mixes().into_iter().zip(pins) {
        let got = trajectory(net(), cars, 42, mix);
        if let Some(tick) = (0..=STEPS).find(|&t| got[t] != pinned[t]) {
            panic!(
                "{map} / {name}: tick {tick} digest {:#018x}, pinned {:#018x}\nall digests: {got:#018x?}",
                got[tick], pinned[tick]
            );
        }
    }
}

#[test]
fn grid_trajectories_match_the_pins() {
    assert_pinned("grid 8x8", || grid_city(8, 8, 100.0), 300, &GRID_PINS);
}

#[test]
fn city_trajectories_match_the_pins() {
    assert_pinned("city 7:2000", || city_map(7, 2_000), 1_000, &CITY_PINS);
}

#[test]
fn disconnected_trajectories_match_the_pins() {
    assert_pinned("two grids", two_grids, 300, &TWO_GRID_PINS);
}

#[test]
fn overflow_trajectories_match_the_pins() {
    assert_pinned("overflowing tail", overflowing_tail, 300, &OVERFLOW_PINS);
}

#[test]
fn the_two_grid_map_parks_and_redraws() {
    // The pins above cover parked cars only if some car draws no
    // reachable junction: on the 3 × 3 grid, eight draws all land on
    // the other grid with probability (64/73)^8 ≈ 0.35.
    let mut sim = Simulation::new(
        two_grids(),
        SimConfig {
            cars: 300,
            seed: 42,
            ..Default::default()
        },
    );
    let mut parked = 0;
    for _ in 0..STEPS {
        sim.step(DT);
        let net = sim.network();
        parked += sim
            .cars()
            .iter()
            .filter(|c| {
                !c.is_en_route() && c.position().offset == net.segment(c.segment()).length()
            })
            .count();
    }
    assert!(parked > 0, "no car ever parked on the two-grid map");
}

#[rustfmt::skip]
const GRID_PINS: [[u64; STEPS + 1]; 4] = [
    [
        0x714dffb226e1be30, 0x2922e9dff0502410, 0x7d8228e14a8c9433, 0x04f915bc8437d16a,
        0x9be57915b1ddd97a, 0xcb49679653a96901, 0xf680defa52cd84d7, 0x85a02f273a651bf5,
        0x03e4b52e6e1115e7, 0xb31d49957fb9e317, 0x2e379d242224b998, 0x0a38ea493363a933,
        0x872ff5cffa16796a, 0xbf18c330a0d80fb9, 0x5c37de74491a46cf, 0x84e8108fcc897af1,
        0x0f96f6d98b962428, 0x5214a5c8adfdafde, 0xf94223b82fa43b35, 0x44836f62e9b351f1,
        0x37c15479675d9186, 0x5524a30a5a445788, 0x33d8ac70732f5a2e, 0xb5fd08f85fd31b63,
        0xf91265b336212977, 0x2bd5cb4c1eff0620, 0x5d7f3aaa9c03787d, 0x6440bb2157cb4c7d,
        0x8adb4ad8184aaa25, 0xc62e6e5cb102a004, 0xc792dd1f20bf5edc, 0xb060e05b4242a428,
        0x91317baa088192d4, 0xe29face276b30aa4, 0x09608bb57c66725e, 0xb5ac26b258636b08,
        0x2eaed7c9c415322d, 0x366c1fb1b9eefc0e, 0xe18c42d04e16c78d, 0xc09d2ed3fd471257,
        0xa32b9ecdea966506,
    ],
    [
        0xa6729635b90ca725, 0x5517f20ae3114e64, 0x078c1c46f22fbe39, 0x2af401fd5937ba6b,
        0x88fef3e78d593deb, 0xb973e0d69a50e36f, 0x209f7768d537f233, 0x6837d89bf189cf73,
        0xd20f7a89171d1b4c, 0xf3d3d657c518f6b6, 0xee51542efae1e0a7, 0x14df7ff617fd9f34,
        0x03f64967bc0c3a1f, 0x9bf973331ba67e9a, 0x04dc2bd24c53c15d, 0xa2512715e21deb58,
        0x83f2fb14843461b2, 0xa642dbbc6449b8a8, 0xff45862377394d01, 0xf4da91d8b9a89478,
        0x3dd2d60f260d5955, 0xbad50f4035e88095, 0x8cea1c28581d5d05, 0x709748b67fe4fff1,
        0xd195a9b97c3e649d, 0xcc7ba1acddd1d951, 0x8e580cb4ba5e4ec7, 0x5b85dac14219f0e3,
        0xb12bd9abea294be6, 0x5513ce602d06cb75, 0xde9ac73fd79999f6, 0x5b365a308c76540e,
        0x37042f824d4e9075, 0xc65411bc1a9a0cd5, 0x9ed29c5664c7ea1d, 0x7d6acc664f4884c5,
        0xe75c93e9a177e3e1, 0x64ecfec90f55b035, 0x5556f03536441423, 0xba664b1fa2e1a02d,
        0xb3fffeb260c4b9d2,
    ],
    [
        0xc83a2043bfb06c3c, 0x9d5f291509377dbb, 0x7d1d11b1542d0ced, 0x755d27abb735af61,
        0xcaa2786d27dea2b3, 0x367cdcf8f0e5d8d2, 0xbec3b916c77771f7, 0x644509770ed46233,
        0x10babba2b823936a, 0x9dc1c97e645a53a7, 0xfaece3a390b962e3, 0xe977e9e3f89e84b9,
        0x096311bcdbf892c9, 0xf332fb4c51385120, 0x08a2f81c65c3c187, 0xc458a52e7c4a402a,
        0x18c1240d16cd3ef4, 0x93aa89b5dfa9a7f2, 0x0100f42b8a3e5878, 0x7a4b1e425005d629,
        0x4c2c2693d76fa66b, 0x3a6a63c2096ecbcf, 0xdc3f8a781c6a9891, 0x0a42e18892b552f4,
        0x81e3d01bfb5c307e, 0xc84ba5ae81aea5ca, 0x2501e4f45160807d, 0x103a6ae4b534cbe0,
        0x5bdb4661df2d1431, 0x96940dbbfee01660, 0x9f9048b63d3e41f4, 0x7635eb406786ee84,
        0x971067436b005b86, 0x95ffbb301f5ba068, 0xf928d1c1da8eedd9, 0x125905d05561c715,
        0x5968f07e418b73ac, 0x022ebd5231358b0a, 0x0be21517ee4f3ef8, 0x0ad8a78d52b648d5,
        0xf3659ce896ae9aa2,
    ],
    [
        0xd9f88de57a365e09, 0x2e58ae1faa62f215, 0xfe7aeed298657c20, 0x073761e50e71f8ed,
        0xce402ffab9618c0a, 0x2edcb8f413e21172, 0x52d9067aaab0b8fa, 0x4f3de9684420b3e9,
        0x727678317e3a6709, 0x943c51babc7af59b, 0x39e6c7680c4f3cca, 0xd8641aac75d94d27,
        0x84fc181f4bb03d33, 0x6e1c815ae1ed45a1, 0x2c9939245974d29a, 0xb74254d50398f190,
        0x16eccca934dfb940, 0x20b13f2df6427810, 0x610db67f9287f259, 0x144711f59e44a299,
        0x95c3218d69e1ffdf, 0x4da5e6be8b19a091, 0x900aa6ce408dc2ae, 0xea9d7586547133c1,
        0x27c25d6e5969cabd, 0xee60d82e66f8b138, 0x4827a107a40320f9, 0x11762f825c67bdf1,
        0xe95157e5a474fd9f, 0xe056ecfde117dbb5, 0x077775360bf47364, 0xa2ccd31c501f45a5,
        0x096ee48d29e4a273, 0x1f3a425fdee76a86, 0xe60f9a0aa0a8c27d, 0x4f518267f403315a,
        0xd571fec077f2ae6f, 0x3e5e99dc77ab3541, 0x7aebbf8e50721337, 0x755b7e12c6fc2fe6,
        0x47163ed658f678c8,
    ],
];

#[rustfmt::skip]
const CITY_PINS: [[u64; STEPS + 1]; 4] = [
    [
        0xcf6e97f2c366319f, 0x6807db6c06a0a6fd, 0x4b1371232fe58bee, 0xc54301303732e0eb,
        0x759d351bf6b411d4, 0xf911fc1c51f2304b, 0xfd400d66da30608d, 0xa4985cda51ebfc13,
        0x991dda0b17878027, 0x06d23fd813be5fdb, 0xff5069959f94e1b5, 0xb51010f33a13653a,
        0x0f3da3f982e0c473, 0x5ad209e71369c770, 0x3a3a873f6ddf4c35, 0xa08dfa5695e22548,
        0xf2dd26d4fca5f17d, 0x5e89a402716e6d2e, 0x46bf19a964e653ba, 0xea9b946910791bcb,
        0xe4e96fcbceb1d2ca, 0x0a3c574c3b111176, 0xcf36d250b492be84, 0xfc0c17f793128c66,
        0xb96b3ed8e2bf335e, 0x23c8082dc1bfad6b, 0xe4bf8645cc4f35e8, 0x7f1986c5fff22015,
        0x4267eab26396682c, 0xf9ea24813d78514b, 0x4dd7e6b97971b40b, 0x92541937a2737026,
        0x486f61c6b1a2a58e, 0x84ce6fc37dcfa4d7, 0xfa5d11ebc9b0af55, 0x42cffa562b8dc352,
        0x220545e8e906518a, 0x43bfe56a490d85ea, 0x0ace0995745db8ed, 0xef469b0ec2deb648,
        0xe1f4645d2df81bbc,
    ],
    [
        0xac6d4a39e8a4c763, 0xfde1f7ccd5d75207, 0x6e07cb9945cf4e1c, 0xf5c6755aa6912c1b,
        0xe302a54bc1433094, 0x305c45554dccde7a, 0x4b13c56fe6a170bb, 0xb23bf86ce4e4eca6,
        0x626e7da56a679b8e, 0x88f43042b0be72dc, 0xab19cbcaefbe8215, 0x94d5c3fccd8853fe,
        0x8be21308b9309a34, 0xc9efb7460961bcaf, 0x45e2f48a520c843e, 0x52d426ac2be967cb,
        0x42e0889d078259a9, 0x373101ba37dfcb9b, 0x556c77966584a97b, 0xae412608e0a15583,
        0x081e9bc90400a44d, 0xb1c966230eee8850, 0xd7cbb4a40a5a6737, 0xd7cbbd93e419bd3d,
        0xad15204ea7527891, 0xe0f32b76646c2c36, 0x0369115dc5c15330, 0x80efc49cb9bb4eff,
        0xe39001ee41122083, 0xe1ce64732cc7f7ff, 0x9171609e44535cd8, 0xf3ef65b58842b461,
        0xd4a2f906955f9a75, 0x06198ab2b8c8f729, 0xa4d18481565f9ac7, 0x3698f2ad002dc79e,
        0x9df0a9da379d1c5b, 0x35363d0570eddbf1, 0x8c67261d7a2816de, 0x4c347c897d442cf1,
        0x9aa13641405d8844,
    ],
    [
        0x7dde2403e982796f, 0x31f43356aa0ab37b, 0x209d86f4e4e65a59, 0x3c27b6a348ad2341,
        0x2b22290d4b0bc01d, 0xca77199a08cad2bf, 0x4296d43e62d21b34, 0xe6017e88912d0776,
        0x83cd58804915aabf, 0xaf575a7fb621d545, 0x9fcae79699460218, 0x2be085dd8691d648,
        0x0d06380164b90512, 0xf7aa666ff2277358, 0x60cd47269886b194, 0x41e226b3cbea686f,
        0x7b523018ff43e760, 0xd2551782a65dbe42, 0xbf22c67535fca174, 0xb40efb4459b061bb,
        0x0be2acdd3386c620, 0x55c701cd0df11684, 0xde5a176fad9456ba, 0x49a4c2a0f1c0838c,
        0x8abb7a48e258dcf5, 0x4d0c801f512d4d17, 0xf06701dc8720229f, 0xd3421d48fd0f12fe,
        0x6322c91abfeaa050, 0x2abb3ee9e3213ca9, 0x12f2fa9f9cbe9bf8, 0x1c6cb9e21a49f604,
        0x9500536062ea21a0, 0xbf4afe764105bfc9, 0x8c5aa16f3c7579f4, 0x93d506e1d6821370,
        0x9833037a2a3853fb, 0x9b126089eecece44, 0xc823521284463690, 0x15f0ef2076f391d5,
        0x8371598e83321ff1,
    ],
    [
        0x1422bbbe7d2a1f5e, 0x44177e5d445fd2be, 0x882299b5a14a0b77, 0xc009ff115bfa1924,
        0x515fe652104eded6, 0x49141cb63af09b0e, 0x832edd966f667d7a, 0xf626d0a968769921,
        0x65ccbcfb0bad8821, 0x3e22da8603c3af1f, 0x0fee9cf3e80e503f, 0xec24c2663f80d8bf,
        0xae12c93a23c83ae0, 0x5ee7dd8d30210c24, 0xdab57c6d395f0e69, 0x43fb4fb787dde077,
        0xfa016d72f70c0aaf, 0x7176036d446118ae, 0x329188dc9e0bebdb, 0xbfcca944aa9f8ba0,
        0xdae110bd85d81b64, 0x79622f8e891e8199, 0xe4c1275ffeabd432, 0xacfcc198f8383d0b,
        0x71b1cbb5140ee6c2, 0x05cec3877e39f1aa, 0xf6027fd7c6b8014d, 0xa4e989b36525d254,
        0x566872d7ec3348e4, 0xd3447ecbe03674d4, 0x00cd61ab7ec02377, 0x17dd893622607237,
        0xbee71eaff7395a18, 0xca8e9af070d685ba, 0x5a25afa82a4b6188, 0x5b1fc1cd456d817f,
        0xd60fb1dbc7cf2e80, 0x466a03fbecfc4d1c, 0xd2950f0cf0dc498e, 0xa6194cc46d326673,
        0x3d73fbb58c69789d,
    ],
];

#[rustfmt::skip]
const TWO_GRID_PINS: [[u64; STEPS + 1]; 4] = [
    [
        0x698d549e6c6cdad4, 0x011fbd45303cc4fa, 0x7ccbafa7cc1dc4b1, 0x40b89dd82619048d,
        0x49543c8a9aef988b, 0xa5a56e15acf90a73, 0x8a394187a96e5d3d, 0xafa3f6c2aae47411,
        0x4c603a30bbac3820, 0x7eab4ab2e896dd2d, 0x8a3df0a5617f69ba, 0x7172fd9140bba72e,
        0xb7bbebd0233d14df, 0x3c0e8ebe7aac1951, 0x01780d6e2abb07fa, 0x9cc88922f8587aaf,
        0x24d3616cbd2714ec, 0xa67d12aba2034d34, 0x343aeeb03db36e40, 0x7379a6281e7ffeda,
        0x6380d37b6bfd151a, 0x4d891d8736575859, 0x9958604a14af0e45, 0x9ba6aa8bdea21ec8,
        0x6709e1b0e439ddcc, 0x80fe639ec1d9d13d, 0x35986592453d9561, 0x4be6231fba46ff37,
        0xb104af4ec0d2c5f0, 0xfd6164f46a03259b, 0x1085e03fd4d67825, 0xb190b8e096cab8d8,
        0x196222aa23025c9f, 0x72627754155d62b7, 0x809df826a63e1fa6, 0x7f16927789a00944,
        0x92adbf7fbadc9547, 0x7aeec17694682044, 0xdf974212a8ff9f8e, 0x40439a1b6c327588,
        0x686013eecfb28e62,
    ],
    [
        0x4b62cea80597f490, 0x30b272543075cee3, 0xc1d5b064019ce555, 0x0107b196cefd9e1e,
        0xf63c861666c8f221, 0x136c2b3861f954ca, 0x4ff3a0eadf1241bb, 0x91e8e09d9a014c0a,
        0xd8f5d22e52f895cb, 0x9a69232e3a7ebc45, 0xbc04ae1816bfc72a, 0x6785fc2ffe089578,
        0x34e05ea212e43bcf, 0xe91c7fb8f3a8182a, 0x2a4ae7eba45c87d9, 0xaf32f684342df662,
        0xa2346bf5a0a0015d, 0x6f32a5af9a809389, 0xf3c9488da2b294fc, 0x113ec51d2b94ea43,
        0xfeaa6b8ae93caa6b, 0xd92bfac70e164fd5, 0x1fc3c5aeb154a58f, 0x57c75480e269bfcd,
        0x343bcbf835fdc096, 0x613a20dd0baf5ae4, 0xa59ec4558ebe4eee, 0xa8b2496008dc839e,
        0x969ea2e3214c0e7a, 0xcb386b593a095867, 0xd4a53d71c6a0f415, 0xc14ad4cb9d79477f,
        0x2dbbaf57a14d5635, 0x1a06985e8a22819f, 0x07f6a3474b04cd89, 0x58c4aa2f81b7fd0e,
        0xa5ba18201fc34865, 0x41736222bd38210c, 0x7a9187404161706d, 0xad4e09e077eb697f,
        0xa5df03859d599f86,
    ],
    [
        0x9cea77267ab464a4, 0x57175d0c62cced2c, 0x75b84a751c9099b4, 0x4298fa3a9c2b396a,
        0x2c5bd1470e6e73f7, 0x32a4bdf00a83920c, 0x655981fd4077ac94, 0x4e110a3ed38dec7e,
        0xf53630a808110d63, 0x941a6142001456b5, 0x24c8f3d8130e5db8, 0xd249d135afc948ea,
        0xd0fc7768ad328e50, 0x64b40c44781dc144, 0x52c5a0a7443f4b5f, 0x431778ab2f8dec5b,
        0x7af0bef138659da2, 0xdfbcaa4651c31636, 0x538ad271ba809a7f, 0xbc1191c2d60f5426,
        0xd58ccf5f682a6f0b, 0x4ff518ae77884efe, 0x3468ee7f3821ae79, 0x7531017d456aabb9,
        0xf99b4d412c0b8d49, 0xffe344f4f6ff7a3b, 0x4dcaf98520b1847f, 0x827a7d7ddd498df4,
        0x822c3d12b340cd98, 0x3982a6f5fd7ea19d, 0xaa8455c01f6b4111, 0x5e942ef424c1d056,
        0x7c7924d378338f95, 0x73e37ba9176108ec, 0x9bb5b193ba1d2230, 0x42309a5c45d9477c,
        0x9eb9dfcd63f5e959, 0x196df9161028ed68, 0x838fdec7c5c7097d, 0x7397b02a85e350c4,
        0x89d2e054f457a007,
    ],
    [
        0x701b17e05acaf4f6, 0x6242d95bced25350, 0xb06b221295f8e4d5, 0x6281f0f685b0c3d4,
        0xf8a53e2c84dadb4c, 0x442a5ca7169844de, 0x36e49514bdd73831, 0xfbcaaa0c06ada1e6,
        0x0fe72e77f0fe4811, 0x5280b571224cd940, 0xc0113269cdb1beee, 0x2e2bcd280e847cae,
        0xcbdb98693afaaea7, 0x63bb03c2fdea5f35, 0x93f0a3ad18df0050, 0xb1b5c2da10582e91,
        0x0186649fa8a111b2, 0xdf26a5c684d146b0, 0x9a7cbd75ebb5c7af, 0x90d55cbf9f1a6045,
        0x6f82573b488dfb19, 0x18fb4cc38aac2c09, 0x9d1229a6ee37ac76, 0x68fd612d6b4ef660,
        0x0c3b7c510e63d2ef, 0xc9a323abd3338341, 0xaca3f5ddbc163e71, 0xa6f073c7c3540b74,
        0x815cc0b33c2493a4, 0x29df682cabd2c977, 0xda06339479b5a364, 0xa428afdb0a45272f,
        0x5501195d0944722c, 0x22816fd2da337064, 0xae8faba9933b5b49, 0x6f09393dda23f648,
        0x7e58ce2b0d14119a, 0xa41a2a782f788c39, 0x9da9afc50e1030db, 0x0fc9614b815a7410,
        0x48a34ef0d01aa410,
    ],
];

#[rustfmt::skip]
const OVERFLOW_PINS: [[u64; STEPS + 1]; 4] = [
    [
        0xc6237fc516de5461, 0x32e94fcd9f2f1540, 0xb92a066bba4d69fb, 0x58872ec9fb449ee5,
        0x8797e8850fe4c884, 0xe4369feada188632, 0x11b89592145e18f8, 0x1d0b9edc6d7d135e,
        0x1910220d488b4239, 0xea476e40e1b5a3b2, 0x9361d3f11d16f784, 0xe231eec361c938af,
        0x2531ded7377eb4b2, 0x3e9dd3dff3ce9f06, 0x8dec0f2ef33da369, 0xeac6021851a39cac,
        0x8043bf160ebc1dcd, 0x587863ae883af9da, 0x324b788d1d8d10b1, 0xe70508141cd81b78,
        0xc60217ee2b2d43c0, 0xf0a637252b6e598c, 0x6cea786a9f9535bb, 0x8d3e187ac1270cb2,
        0x327d5c433e779d05, 0xd8e235826f03e4a6, 0x0c441b50a613e191, 0x60527bbcebacd39d,
        0x60e8fc46f5e655f1, 0x0748716f0f547c71, 0xb7d0621e5cebb093, 0x1418512a26a13d80,
        0x1ded56716cf7efe7, 0xfa771c68e964902d, 0xcab661cd7da7367f, 0xaa6381363cfdb407,
        0x1ff58a938b33323a, 0x48e7cd222b8e5f06, 0x7bc13a7b6fe560bc, 0xa36f673c913def51,
        0x34a4ce99a835fd13,
    ],
    [
        0x0c081381ab8892b6, 0xba57fd3420178558, 0xa4d1c1bb3e2057af, 0x094e8b3b0f006abb,
        0x4d8c5425e1e91f8f, 0x89b90d08a711d3b7, 0x47b81d954c5093aa, 0x7ae07d1c67c359c7,
        0xc98902aa265c69c2, 0x2c2a0c5442ebec5c, 0xde42a1da0d5d0723, 0x0dfb59adb9a3d841,
        0x6b3a499a589e1cd5, 0x0e6fdd9db4fc5709, 0x7e3253b8f4042fab, 0xfdd99c7c1f251190,
        0x39037f3233b7ffe7, 0x2c2e95569585ca1f, 0x756e9ea0288e086e, 0x0ceb95f4fa757703,
        0xcbc5ca1df6716ad8, 0x7077da946d194987, 0x7f162934eee73f24, 0xf423af13a2e090d1,
        0x01ea6211a7edc235, 0x2f632284860fc6c3, 0x27b6c292fc2c1eae, 0xb49f311361bf0e72,
        0x5a9d11932441977c, 0x787261935b9bf262, 0xe9cd6bcdfa797433, 0x8a19ebbf3e979ee0,
        0xb165542452c46c0a, 0x435af805bb22c6f3, 0xded5303e30893aee, 0x500528282b2d6b70,
        0x9f5882557d5cdbe9, 0x859f4d1227aad1a7, 0x4b4631ccb8ce0189, 0x2d53757eea5db967,
        0xf248da4d0e209227,
    ],
    [
        0x71334f39d8b09ac3, 0xf2389c327a8bb1b7, 0xe50b3cd01a09ee3e, 0x8e962fb13e9468b1,
        0xeb472fd2916800a0, 0xf0dcb5e71ff7b1a4, 0x01e9b82650069e0c, 0xd0a49ef703d4cd37,
        0x77008aa85cfc404d, 0xe23637125777e5c2, 0x7f8f60bec75694f6, 0x27d6e1b3300b3aa1,
        0xd1348de37585e21c, 0x226fe75615937eab, 0xb51bd8d0a676e7c6, 0x24c6a913ea0ed098,
        0x07e7f5493c34bb62, 0x7506026ee0ff671f, 0x0a652d1a61d90b1c, 0xb0c9e50e97d55859,
        0x6bd714361a1f9550, 0x47aa6d3c0d3acf56, 0x85ea8168586e31fd, 0xacee228950aaf2f8,
        0x8b6f877dcaa75c82, 0x2675d98f59474b79, 0x6572f26e672587a3, 0xf6256e307563a2e1,
        0x774b5689098fd417, 0x787dfe33a0490e38, 0x0b5d8fadab22511c, 0xa115742c5d3f3d11,
        0xd9a5bc3c4b09792c, 0x673ce76e6e68de1a, 0x929d5d56958f96c4, 0x89e2b5e003ab0196,
        0x7c0682a0a419fdb1, 0x74f22c3ecaf0d5d4, 0xc8bec704599e761c, 0xd810ec151778b75b,
        0xbdd53a408c669009,
    ],
    [
        0x8c2b9cb055b296c4, 0x3ef5dddedf34e27e, 0xab50d00665ea187e, 0x40bf0aeed7b90c6b,
        0x2ceb28290141b494, 0x8b5c22cbbb53b47c, 0xae60d906e76c5304, 0xd8368f1fbfa56370,
        0xc20fa97a9ba9757b, 0x8fbda241e7030004, 0xa8c4e0cf5b8f4b05, 0x85c4c2319ab33273,
        0x523383609bc8d395, 0x477ef3537af43578, 0x45c29a99dc8576c3, 0xb9268acf27f1fa9b,
        0x7e4e5953554a5fd8, 0xe62b19b41e969084, 0xe58bf28c3fe09349, 0xe792f9911945adc4,
        0x3b9fc5836ebd4b04, 0xf988d048e726ffb5, 0x87688954bbc85923, 0xd0ff444264df6ee9,
        0x4e774d4bb0e15d2d, 0x8105a72aad069bd3, 0x5454dee8c0485ec5, 0x4517bfbeb01574df,
        0xdf678857a0738f3c, 0x90ad9d9c873f82c0, 0x3e04c3ea29af8e98, 0xf127a91cafafe7ae,
        0x438d5d64c2854fb6, 0x18bbf6a34c4d1a3e, 0x1f82df923fe88c01, 0x20f0eec8a07af98f,
        0x6e0c98d200346899, 0xa2e8409d2a64bb23, 0x7908d5e5fc344b9c, 0xdcec1fc8c924544c,
        0xcec5d088913b524e,
    ],
];
