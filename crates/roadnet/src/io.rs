//! A human-readable text format for road networks.
//!
//! Maps the USGS-style inputs of the paper onto a simple line format:
//!
//! ```text
//! # comment
//! junction <id> <x> <y>
//! segment <id> <junction-a> <junction-b> [length]
//! ```
//!
//! Ids must be dense and in order (the builder assigns them that way); the
//! parser enforces this so files round-trip exactly. Coordinates must be
//! finite and lengths finite and non-negative: the builder would clamp a
//! `nan` or negative length to 0, and a non-finite coordinate would give
//! a default-length road a length of 0 or infinity.

use crate::builder::{BuildError, RoadNetworkBuilder};
use crate::geometry::Point;
use crate::graph::{JunctionId, RoadNetwork};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Error from parsing a road-map file.
#[derive(Debug)]
pub enum MapFormatError {
    /// An I/O failure while reading or writing.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and a reason.
    Parse(usize, String),
    /// The parsed structure was not a valid network.
    Build(BuildError),
}

impl fmt::Display for MapFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapFormatError::Io(e) => write!(f, "i/o error: {e}"),
            MapFormatError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            MapFormatError::Build(e) => write!(f, "invalid network: {e}"),
        }
    }
}

impl Error for MapFormatError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapFormatError::Io(e) => Some(e),
            MapFormatError::Build(e) => Some(e),
            MapFormatError::Parse(..) => None,
        }
    }
}

impl From<std::io::Error> for MapFormatError {
    fn from(e: std::io::Error) -> Self {
        MapFormatError::Io(e)
    }
}

impl From<BuildError> for MapFormatError {
    fn from(e: BuildError) -> Self {
        MapFormatError::Build(e)
    }
}

/// Writes a network in the text map format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_map<W: Write>(net: &RoadNetwork, mut w: W) -> Result<(), MapFormatError> {
    writeln!(w, "# roadnet map v1")?;
    writeln!(
        w,
        "# {} junctions, {} segments",
        net.junction_count(),
        net.segment_count()
    )?;
    for j in net.junctions() {
        writeln!(
            w,
            "junction {} {} {}",
            j.id().0,
            j.position().x,
            j.position().y
        )?;
    }
    for s in net.segments() {
        writeln!(
            w,
            "segment {} {} {} {}",
            s.id().0,
            s.a().0,
            s.b().0,
            s.length()
        )?;
    }
    Ok(())
}

/// Reads a network from the text map format.
///
/// # Errors
///
/// Fails on I/O errors, malformed lines, out-of-order ids, or structurally
/// invalid networks (self-loops, duplicates, unknown junctions).
pub fn read_map<R: BufRead>(r: R) -> Result<RoadNetwork, MapFormatError> {
    let mut b = RoadNetworkBuilder::new();
    let mut expected_segment = 0u32;
    for (i, line) in r.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let kind = parts.next().expect("non-empty line");
        match kind {
            "junction" => {
                let id: u32 = next_field(&mut parts, lineno, "junction id")?;
                let x = finite(next_field(&mut parts, lineno, "x")?, lineno, "x")?;
                let y = finite(next_field(&mut parts, lineno, "y")?, lineno, "y")?;
                let assigned = b.add_junction(Point::new(x, y));
                if assigned.0 != id {
                    return Err(MapFormatError::Parse(
                        lineno,
                        format!(
                            "junction ids must be dense and ordered: expected {}, got {id}",
                            assigned.0
                        ),
                    ));
                }
            }
            "segment" => {
                let id: u32 = next_field(&mut parts, lineno, "segment id")?;
                let a: u32 = next_field(&mut parts, lineno, "endpoint a")?;
                let bb: u32 = next_field(&mut parts, lineno, "endpoint b")?;
                if id != expected_segment {
                    return Err(MapFormatError::Parse(
                        lineno,
                        format!(
                            "segment ids must be dense and ordered: expected {expected_segment}, got {id}"
                        ),
                    ));
                }
                expected_segment += 1;
                let length: Option<f64> = match parts.next() {
                    Some(tok) => match tok.parse::<f64>() {
                        Ok(len) if len.is_finite() && len >= 0.0 => Some(len),
                        _ => {
                            return Err(MapFormatError::Parse(
                                lineno,
                                format!("invalid length `{tok}`: must be finite and non-negative"),
                            ))
                        }
                    },
                    None => None,
                };
                match length {
                    Some(len) => {
                        b.add_segment_with_length(JunctionId(a), JunctionId(bb), len)?;
                    }
                    None => {
                        b.add_segment(JunctionId(a), JunctionId(bb))?;
                    }
                }
            }
            other => {
                return Err(MapFormatError::Parse(
                    lineno,
                    format!("unknown record type `{other}`"),
                ));
            }
        }
    }
    Ok(b.build()?)
}

/// `value` if it is finite, else a parse error naming the field.
fn finite(value: f64, lineno: usize, what: &str) -> Result<f64, MapFormatError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(MapFormatError::Parse(
            lineno,
            format!("invalid {what} `{value}`: must be finite"),
        ))
    }
}

fn next_field<T: std::str::FromStr>(
    parts: &mut std::str::SplitWhitespace<'_>,
    lineno: usize,
    what: &str,
) -> Result<T, MapFormatError> {
    let tok = parts
        .next()
        .ok_or_else(|| MapFormatError::Parse(lineno, format!("missing {what}")))?;
    tok.parse()
        .map_err(|_| MapFormatError::Parse(lineno, format!("invalid {what} `{tok}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{grid_city, irregular_city, IrregularConfig};

    #[test]
    fn roundtrip_grid() {
        let net = grid_city(4, 4, 100.0);
        let mut buf = Vec::new();
        write_map(&net, &mut buf).unwrap();
        let back = read_map(buf.as_slice()).unwrap();
        assert_eq!(net, back);
    }

    #[test]
    fn roundtrip_irregular_with_curvy_lengths() {
        let net = irregular_city(&IrregularConfig {
            junctions: 80,
            segments: 100,
            seed: 9,
            ..Default::default()
        });
        let mut buf = Vec::new();
        write_map(&net, &mut buf).unwrap();
        let back = read_map(buf.as_slice()).unwrap();
        assert_eq!(net.segment_count(), back.segment_count());
        for (a, b) in net.segments().zip(back.segments()) {
            assert!((a.length() - b.length()).abs() < 1e-9);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\njunction 0 0 0\njunction 1 10 0\n# roads\nsegment 0 0 1\n";
        let net = read_map(text.as_bytes()).unwrap();
        assert_eq!(net.junction_count(), 2);
        assert_eq!(net.segment_count(), 1);
        assert_eq!(net.segment(crate::SegmentId(0)).length(), 10.0);
    }

    #[test]
    fn rejects_unknown_record() {
        let err = read_map("road 0 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, MapFormatError::Parse(1, _)), "{err}");
    }

    #[test]
    fn rejects_out_of_order_ids() {
        let text = "junction 1 0 0\n";
        let err = read_map(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("dense and ordered"), "{err}");

        let text = "junction 0 0 0\njunction 1 5 5\nsegment 3 0 1\n";
        let err = read_map(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("dense and ordered"), "{err}");
    }

    #[test]
    fn rejects_missing_fields_and_bad_numbers() {
        assert!(read_map("junction 0 1\n".as_bytes()).is_err());
        assert!(read_map("junction 0 x y\n".as_bytes()).is_err());
        assert!(
            read_map("junction 0 0 0\njunction 1 1 0\nsegment 0 0 1 banana\n".as_bytes()).is_err()
        );
    }

    #[test]
    fn rejects_non_finite_coordinates_and_bad_lengths() {
        for (text, line) in [
            ("junction 0 0 0\njunction 1 nan 0\nsegment 0 0 1\n", 2),
            ("junction 0 0 0\njunction 1 inf 0\nsegment 0 0 1\n", 2),
            ("junction 0 0 -inf\n", 1),
            ("junction 0 0 0\njunction 1 1 0\nsegment 0 0 1 inf\n", 3),
            ("junction 0 0 0\njunction 1 1 0\nsegment 0 0 1 nan\n", 3),
            ("junction 0 0 0\njunction 1 1 0\nsegment 0 0 1 -5\n", 3),
            ("junction 0 0 0\njunction 1 1 0\nsegment 0 0 1 1e309\n", 3),
        ] {
            let err = read_map(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, MapFormatError::Parse(l, _) if l == line),
                "{text:?}: {err}"
            );
        }
        // Zero stays a valid explicit length.
        let net = read_map("junction 0 0 0\njunction 1 1 0\nsegment 0 0 1 0\n".as_bytes()).unwrap();
        assert_eq!(net.segment(crate::SegmentId(0)).length(), 0.0);
    }

    #[test]
    fn rejects_structurally_invalid() {
        let text = "junction 0 0 0\nsegment 0 0 0\n";
        let err = read_map(text.as_bytes()).unwrap_err();
        assert!(matches!(err, MapFormatError::Build(_)), "{err}");
    }

    #[test]
    fn rejects_empty_file() {
        assert!(matches!(
            read_map("# nothing\n".as_bytes()).unwrap_err(),
            MapFormatError::Build(BuildError::EmptyNetwork)
        ));
    }
}
