//! Mobility trace recording and export.
//!
//! GTMobiSim is a *trace generator*; this module records the simulated
//! motion as `(time, car, segment, offset)` samples and exports them in a
//! simple text format for downstream analysis or replay.

use crate::car::CarId;
use crate::sim::Simulation;
use roadnet::SegmentId;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// One trace sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Simulation time in seconds.
    pub time: f64,
    /// The sampled car.
    pub car: CarId,
    /// Occupied segment.
    pub segment: SegmentId,
    /// Offset along the segment in meters.
    pub offset: f64,
}

/// A recorded mobility trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    samples: Vec<TraceSample>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the position of every car at the simulation's current time.
    pub fn record_all(&mut self, sim: &Simulation) {
        let t = sim.clock();
        for car in sim.cars() {
            self.samples.push(TraceSample {
                time: t,
                car: car.id(),
                segment: car.segment(),
                offset: car.position().offset,
            });
        }
    }

    /// Records a single car.
    pub fn record_car(&mut self, sim: &Simulation, car: CarId) {
        if let Some(c) = sim.car(car) {
            self.samples.push(TraceSample {
                time: sim.clock(),
                car,
                segment: c.segment(),
                offset: c.position().offset,
            });
        }
    }

    /// All samples in recording order.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The trajectory (time-ordered samples) of one car.
    pub fn trajectory(&self, car: CarId) -> Vec<TraceSample> {
        let mut t: Vec<TraceSample> = self
            .samples
            .iter()
            .filter(|s| s.car == car)
            .copied()
            .collect();
        t.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        t
    }

    /// Writes the trace as `time car segment offset` lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "# mobisim trace v1: time car segment offset")?;
        for s in &self.samples {
            writeln!(w, "{} {} {} {}", s.time, s.car.0, s.segment.0, s.offset)?;
        }
        Ok(())
    }

    /// Reads a trace written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, and with [`std::io::ErrorKind::InvalidData`]
    /// naming the line on a malformed one: not exactly four fields, a
    /// field that does not parse, or a `time` or `offset` that is not
    /// finite and non-negative.
    pub fn read_from<R: BufRead>(r: R) -> std::io::Result<Trace> {
        let mut samples = Vec::new();
        for (i, line) in r.lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("malformed trace line {}", i + 1),
                )
            };
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [time, car, segment, offset] = fields[..] else {
                return Err(bad());
            };
            let non_negative = |field: &str| match field.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
                _ => Err(bad()),
            };
            samples.push(TraceSample {
                time: non_negative(time)?,
                car: CarId(car.parse().map_err(|_| bad())?),
                segment: SegmentId(segment.parse().map_err(|_| bad())?),
                offset: non_negative(offset)?,
            });
        }
        Ok(Trace { samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimConfig;
    use roadnet::grid_city;

    fn sim() -> Simulation {
        Simulation::new(
            grid_city(4, 4, 100.0),
            SimConfig {
                cars: 20,
                seed: 11,
                ..Default::default()
            },
        )
    }

    #[test]
    fn record_all_counts() {
        let mut s = sim();
        let mut trace = Trace::new();
        trace.record_all(&s);
        s.step(10.0);
        trace.record_all(&s);
        assert_eq!(trace.len(), 40);
        assert!(!trace.is_empty());
    }

    #[test]
    fn trajectory_is_time_ordered() {
        let mut s = sim();
        let mut trace = Trace::new();
        for _ in 0..5 {
            trace.record_car(&s, CarId(3));
            s.step(7.0);
        }
        let traj = trace.trajectory(CarId(3));
        assert_eq!(traj.len(), 5);
        for w in traj.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(trace.trajectory(CarId(99)).is_empty());
    }

    #[test]
    fn roundtrip_text_format() {
        let mut s = sim();
        let mut trace = Trace::new();
        trace.record_all(&s);
        s.step(3.0);
        trace.record_all(&s);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(trace.len(), back.len());
        for (a, b) in trace.samples().iter().zip(back.samples()) {
            assert_eq!(a.car, b.car);
            assert_eq!(a.segment, b.segment);
            assert!((a.offset - b.offset).abs() < 1e-9);
        }
    }

    #[test]
    fn read_rejects_malformed() {
        assert!(Trace::read_from("1.0 2 3".as_bytes()).is_err());
        assert!(Trace::read_from("x y z w".as_bytes()).is_err());
        assert!(Trace::read_from("# only comments\n".as_bytes())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn read_rejects_extra_fields_and_non_finite_or_negative_numbers() {
        for bad in [
            "0 1 2 3.5 trailing junk",
            "NaN 1 2 inf",
            "1 2 3 -infinity",
            "-1 2 3 4",
            "1 2 3 -0.5",
            "1 2 3 NaN",
        ] {
            let text = format!("# header\n0 1 2 3.5\n{bad}\n");
            let err = Trace::read_from(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{bad}");
            assert!(err.to_string().contains("line 3"), "{bad}: {err}");
        }
        let ok = Trace::read_from("0 1 2 3.5\n".as_bytes()).unwrap();
        assert_eq!(ok.samples()[0].offset, 3.5);
    }
}
