//! Keyring persistence: saving and loading per-level keys.
//!
//! The paper's Anonymizer "automatically generate\[s\] and manage\[s\] access
//! keys"; this module is the storage half — a simple line format
//!
//! ```text
//! # reversecloak keyring v1
//! level 1 <64-hex>
//! level 2 <64-hex>
//! ```
//!
//! **The file contains secrets.** [`write_keyring_file`] creates it with
//! owner-only permissions (`0o600`) on Unix; callers streaming through
//! [`write_keyring`] with their own writer are responsible for placing
//! the output somewhere equally protected.

use crate::key::Key256;
use crate::manager::KeyManager;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Error from keyring I/O.
#[derive(Debug)]
pub enum KeyringError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number and a reason.
    Parse(usize, String),
    /// Levels were missing or out of order.
    BadLevels(String),
}

impl fmt::Display for KeyringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyringError::Io(e) => write!(f, "i/o error: {e}"),
            KeyringError::Parse(line, msg) => write!(f, "line {line}: {msg}"),
            KeyringError::BadLevels(msg) => write!(f, "bad keyring structure: {msg}"),
        }
    }
}

impl Error for KeyringError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KeyringError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for KeyringError {
    fn from(e: std::io::Error) -> Self {
        KeyringError::Io(e)
    }
}

/// Writes a key manager's keys as a keyring.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_keyring<W: Write>(mgr: &KeyManager, mut w: W) -> Result<(), KeyringError> {
    writeln!(w, "# reversecloak keyring v1")?;
    for (level, key) in mgr.iter() {
        writeln!(w, "level {} {}", level.0, key.to_hex())?;
    }
    Ok(())
}

/// Writes a key manager's keys as a keyring file at `path`, created (or
/// truncated) with owner-only permissions (`0o600`) on Unix — the file
/// contains secrets, so group/world readability is never acceptable.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_keyring_file(
    mgr: &KeyManager,
    path: impl AsRef<std::path::Path>,
) -> Result<(), KeyringError> {
    let mut opts = std::fs::OpenOptions::new();
    opts.write(true).create(true).truncate(true);
    #[cfg(unix)]
    {
        use std::os::unix::fs::OpenOptionsExt;
        opts.mode(0o600);
    }
    let file = opts.open(path)?;
    // `mode` only applies at creation; tighten pre-existing files too.
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        let mut perm = file.metadata()?.permissions();
        perm.set_mode(0o600);
        file.set_permissions(perm)?;
    }
    let mut w = std::io::BufWriter::new(file);
    write_keyring(mgr, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Reads a keyring written by [`write_keyring`].
///
/// # Errors
///
/// Fails on malformed lines, duplicate/missing levels, or bad hex.
pub fn read_keyring<R: BufRead>(r: R) -> Result<KeyManager, KeyringError> {
    let mut entries: Vec<(u8, Key256)> = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("level") => {}
            Some(other) => {
                return Err(KeyringError::Parse(
                    lineno,
                    format!("unknown record `{other}`"),
                ))
            }
            None => continue,
        }
        let level: u8 = parts
            .next()
            .ok_or_else(|| KeyringError::Parse(lineno, "missing level number".into()))?
            .parse()
            .map_err(|_| KeyringError::Parse(lineno, "invalid level number".into()))?;
        let hex = parts
            .next()
            .ok_or_else(|| KeyringError::Parse(lineno, "missing key".into()))?;
        let key = Key256::from_hex(hex)
            .map_err(|e| KeyringError::Parse(lineno, format!("invalid key: {e}")))?;
        if parts.next().is_some() {
            return Err(KeyringError::Parse(lineno, "trailing tokens".into()));
        }
        entries.push((level, key));
    }
    entries.sort_by_key(|(l, _)| *l);
    for (i, (l, _)) in entries.iter().enumerate() {
        // Compared in `usize`: a 256th entry expects level 256, which no
        // `u8` level matches.
        let expect = i + 1;
        if *l as usize != expect {
            return Err(KeyringError::BadLevels(format!(
                "expected level {expect}, found level {l}"
            )));
        }
    }
    if entries.is_empty() {
        return Err(KeyringError::BadLevels("no keys in keyring".into()));
    }
    Ok(KeyManager::from_keys(
        entries.into_iter().map(|(_, k)| k).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mgr = KeyManager::from_seed(4, 77);
        let mut buf = Vec::new();
        write_keyring(&mgr, &mut buf).unwrap();
        let back = read_keyring(buf.as_slice()).unwrap();
        assert_eq!(mgr, back);
    }

    #[test]
    fn file_roundtrip_creates_owner_only_permissions() {
        let mgr = KeyManager::from_seed(3, 42);
        let path = std::env::temp_dir().join(format!("rc-keyring-test-{}.txt", std::process::id()));
        // Pre-create the file wide open: the writer must tighten it.
        std::fs::write(&path, "stale").unwrap();
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o644)).unwrap();
        }
        write_keyring_file(&mgr, &path).unwrap();
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let mode = std::fs::metadata(&path).unwrap().permissions().mode() & 0o777;
            assert_eq!(mode, 0o600, "keyring file must be owner-only");
        }
        let back =
            read_keyring(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
        assert_eq!(mgr, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn accepts_shuffled_levels() {
        let mgr = KeyManager::from_seed(3, 5);
        let mut buf = Vec::new();
        write_keyring(&mgr, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1..].reverse(); // shuffle key lines, keep header first
        let shuffled = lines.join("\n");
        let back = read_keyring(shuffled.as_bytes()).unwrap();
        assert_eq!(mgr, back);
    }

    #[test]
    fn rejects_gaps_and_duplicates() {
        let k = Key256::from_seed(1).to_hex();
        let gap = format!("level 1 {k}\nlevel 3 {k}\n");
        assert!(matches!(
            read_keyring(gap.as_bytes()),
            Err(KeyringError::BadLevels(_))
        ));
        let dup = format!("level 1 {k}\nlevel 1 {k}\n");
        assert!(read_keyring(dup.as_bytes()).is_err());
    }

    #[test]
    fn rejects_a_256th_entry() {
        let k = Key256::from_seed(1).to_hex();
        let mut ring: String = (1..=255).map(|l| format!("level {l} {k}\n")).collect();
        assert_eq!(read_keyring(ring.as_bytes()).unwrap().level_count(), 255);
        ring.push_str(&format!("level 255 {k}\n"));
        assert!(matches!(
            read_keyring(ring.as_bytes()),
            Err(KeyringError::BadLevels(_))
        ));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(read_keyring("level\n".as_bytes()).is_err());
        assert!(read_keyring("level x abc\n".as_bytes()).is_err());
        assert!(read_keyring("level 1 nothex\n".as_bytes()).is_err());
        let k = Key256::from_seed(1).to_hex();
        assert!(read_keyring(format!("level 1 {k} extra\n").as_bytes()).is_err());
        assert!(read_keyring(format!("key 1 {k}\n").as_bytes()).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            read_keyring("# empty\n".as_bytes()),
            Err(KeyringError::BadLevels(_))
        ));
    }

    #[test]
    fn error_display() {
        let e = KeyringError::Parse(3, "oops".into());
        assert!(e.to_string().contains("line 3"));
    }
}
