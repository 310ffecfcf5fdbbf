//! Directory helpers for the benchmark's scratch stores.

use std::fs;
use std::path::Path;

fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Removes `dir` and everything in it; a missing directory is fine.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err("cannot remove", dir, e)),
        _ => Ok(()),
    }
}

/// Leaves `dir` existing and empty.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    remove_dir(dir)?;
    fs::create_dir_all(dir).map_err(|e| io_err("cannot create", dir, e))
}

/// Copies the regular files directly in `src` into `dst` (a store is one
/// flat directory).
pub fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    fs::create_dir_all(dst).map_err(|e| io_err("cannot create", dst, e))?;
    for entry in fs::read_dir(src).map_err(|e| io_err("cannot list", src, e))? {
        let path = entry.map_err(|e| io_err("cannot list", src, e))?.path();
        if path.is_file() {
            let to = dst.join(path.file_name().expect("a listed file has a name"));
            fs::copy(&path, &to).map_err(|e| io_err("cannot copy", &path, e))?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in fs::read_dir(dir).map_err(|e| io_err("cannot list", dir, e))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| io_err("cannot stat a file in", dir, e))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
