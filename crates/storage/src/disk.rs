//! The disk seam: every filesystem call the store makes.
//!
//! [`NodeStore`](crate::NodeStore) keeps the file lifecycle (epochs,
//! snapshot-before-compact order, the torn-tail rule) and reaches bytes
//! only through a [`Disk`]. [`OsDisk`] is the real filesystem.
//! [`MemDisk`] keeps its files in memory, each with the bytes synced to
//! it and the bytes written since, so a test can take the image a crash
//! would leave ([`MemDisk::crash`]).

use crate::store::StorageError;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

/// The filesystem calls the store makes. Every error names the path it
/// happened on.
pub trait Disk {
    /// A file open for appending.
    type File;

    /// Create `dir` and any missing parents. True if `dir` did not
    /// exist before.
    fn create_dir_all(&mut self, dir: &Path) -> Result<bool, StorageError>;

    /// Create `path` empty, truncating any file there, and open it for
    /// appending.
    fn create(&mut self, path: &Path) -> Result<Self::File, StorageError>;

    /// Write all of `bytes` at the end of `file`.
    fn append(&mut self, file: &mut Self::File, bytes: &[u8]) -> Result<(), StorageError>;

    /// Force the bytes written to `file`, and the length needed to read
    /// them back, down to the platter (`fdatasync`).
    fn sync(&mut self, file: &Self::File) -> Result<(), StorageError>;

    /// Rename `from` to `to`, replacing any file at `to`.
    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StorageError>;

    /// Delete the file at `path`.
    fn remove(&mut self, path: &Path) -> Result<(), StorageError>;

    /// The names of the entries in `dir`, in no particular order.
    /// A missing directory lists as empty; a name that is not UTF-8 is
    /// left out.
    fn list(&self, dir: &Path) -> Result<Vec<String>, StorageError>;

    /// Make the creates, renames and removals in `dir` durable.
    fn sync_dir(&mut self, dir: &Path) -> Result<(), StorageError>;

    /// The whole contents of the file at `path`.
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError>;
}

fn io_err<T>(path: &Path, r: std::io::Result<T>) -> Result<T, StorageError> {
    r.map_err(|source| StorageError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// The operating system's filesystem, through `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsDisk;

/// A file [`OsDisk`] opened, with its path for error reports.
#[derive(Debug)]
pub struct OsFile {
    file: File,
    path: PathBuf,
}

impl Disk for OsDisk {
    type File = OsFile;

    fn create_dir_all(&mut self, dir: &Path) -> Result<bool, StorageError> {
        let created = !dir.is_dir();
        io_err(dir, fs::create_dir_all(dir))?;
        Ok(created)
    }

    fn create(&mut self, path: &Path) -> Result<OsFile, StorageError> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path);
        Ok(OsFile {
            file: io_err(path, file)?,
            path: path.to_path_buf(),
        })
    }

    fn append(&mut self, file: &mut OsFile, bytes: &[u8]) -> Result<(), StorageError> {
        io_err(&file.path, file.file.write_all(bytes))
    }

    fn sync(&mut self, file: &OsFile) -> Result<(), StorageError> {
        io_err(&file.path, file.file.sync_data())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StorageError> {
        io_err(to, fs::rename(from, to))
    }

    fn remove(&mut self, path: &Path) -> Result<(), StorageError> {
        io_err(path, fs::remove_file(path))
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>, StorageError> {
        let entries = match fs::read_dir(dir) {
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            other => io_err(dir, other)?,
        };
        let mut names = Vec::new();
        for entry in entries {
            if let Ok(name) = io_err(dir, entry)?.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    /// A directory that cannot be opened, or whose sync fails, is an
    /// error; only a filesystem that refuses to sync a directory handle
    /// at all (`InvalidInput`/`Unsupported`) is skipped, as production
    /// WALs do.
    fn sync_dir(&mut self, dir: &Path) -> Result<(), StorageError> {
        let handle = io_err(dir, File::open(dir))?;
        match handle.sync_all() {
            Err(e) if matches!(e.kind(), ErrorKind::InvalidInput | ErrorKind::Unsupported) => {
                Ok(())
            }
            synced => io_err(dir, synced),
        }
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        io_err(path, fs::read(path))
    }
}

/// A disk in memory. Each file keeps the bytes written to it and how
/// many of them a sync has made durable; [`MemDisk::crash`] drops the
/// rest. Directory entries are durable as soon as they are made, so a
/// create, rename or removal survives a crash without `sync_dir`.
///
/// A file handle is the path the file was created at: appending after
/// the file was renamed or removed is an error.
#[derive(Debug, Clone, Default)]
pub struct MemDisk {
    dirs: BTreeSet<PathBuf>,
    files: BTreeMap<PathBuf, MemFile>,
}

#[derive(Debug, Clone, Default)]
struct MemFile {
    bytes: Vec<u8>,
    synced: usize,
}

impl MemDisk {
    /// Lose every byte no sync made durable, as a power cut would.
    pub fn crash(&mut self) {
        for file in self.files.values_mut() {
            file.bytes.truncate(file.synced);
        }
    }

    fn file(&mut self, path: &Path) -> Result<&mut MemFile, StorageError> {
        self.files.get_mut(path).ok_or_else(|| not_found(path))
    }
}

fn not_found(path: &Path) -> StorageError {
    StorageError::Io {
        path: path.to_path_buf(),
        source: ErrorKind::NotFound.into(),
    }
}

impl Disk for MemDisk {
    type File = PathBuf;

    fn create_dir_all(&mut self, dir: &Path) -> Result<bool, StorageError> {
        let created = !self.dirs.contains(dir);
        self.dirs.extend(dir.ancestors().map(Path::to_path_buf));
        Ok(created)
    }

    fn create(&mut self, path: &Path) -> Result<PathBuf, StorageError> {
        let parent = path.parent().unwrap_or(Path::new(""));
        if !self.dirs.contains(parent) {
            return Err(not_found(parent));
        }
        self.files.insert(path.to_path_buf(), MemFile::default());
        Ok(path.to_path_buf())
    }

    fn append(&mut self, file: &mut PathBuf, bytes: &[u8]) -> Result<(), StorageError> {
        self.file(file)?.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, file: &PathBuf) -> Result<(), StorageError> {
        let file = self.file(file)?;
        file.synced = file.bytes.len();
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StorageError> {
        let file = self.files.remove(from).ok_or_else(|| not_found(from))?;
        self.files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove(&mut self, path: &Path) -> Result<(), StorageError> {
        self.files
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    /// The store makes no subdirectories, so only files are listed.
    fn list(&self, dir: &Path) -> Result<Vec<String>, StorageError> {
        Ok(self
            .files
            .keys()
            .filter(|path| path.parent() == Some(dir))
            .filter_map(|path| path.file_name()?.to_str().map(str::to_owned))
            .collect())
    }

    fn sync_dir(&mut self, _dir: &Path) -> Result<(), StorageError> {
        Ok(())
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        self.files
            .get(path)
            .map(|file| file.bytes.clone())
            .ok_or_else(|| not_found(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_dir_reports_a_missing_directory() {
        let missing =
            std::env::temp_dir().join(format!("dynvote-fsync-dir-missing-{}", std::process::id()));
        let _ = fs::remove_dir_all(&missing);
        assert!(
            OsDisk.sync_dir(&missing).is_err(),
            "a missing directory synced"
        );
        assert!(OsDisk.sync_dir(&std::env::temp_dir()).is_ok());
    }

    #[test]
    fn a_mem_disk_crash_keeps_the_synced_bytes_of_every_file() {
        let mut disk = MemDisk::default();
        let dir = Path::new("data");
        assert!(disk.create_dir_all(dir).unwrap());
        assert!(!disk.create_dir_all(dir).unwrap(), "created twice");
        let mut a = disk.create(&dir.join("a")).unwrap();
        disk.append(&mut a, b"synced").unwrap();
        disk.sync(&a).unwrap();
        disk.append(&mut a, b" lost").unwrap();
        let mut b = disk.create(&dir.join("b.tmp")).unwrap();
        disk.append(&mut b, b"renamed").unwrap();
        disk.sync(&b).unwrap();
        disk.rename(&b, &dir.join("b")).unwrap();
        assert!(disk.append(&mut b, b"!").is_err(), "a renamed handle wrote");
        assert_eq!(disk.read(&dir.join("a")).unwrap(), b"synced lost");

        disk.crash();
        assert_eq!(disk.read(&dir.join("a")).unwrap(), b"synced");
        assert_eq!(disk.read(&dir.join("b")).unwrap(), b"renamed");
        let mut names = disk.list(dir).unwrap();
        names.sort();
        assert_eq!(names, ["a", "b"]);
        assert!(disk.list(Path::new("elsewhere")).unwrap().is_empty());
        disk.remove(&dir.join("a")).unwrap();
        assert!(disk.read(&dir.join("a")).is_err());
        assert!(disk.create(Path::new("missing/c")).is_err());
    }
}
