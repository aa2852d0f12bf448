//! Cross-process exclusive locks: one `flock` per lock file.
//!
//! A [`DirLock`] opens `dir/file_name`, creating it if needed, and takes
//! an exclusive `flock` on it without waiting ([`File::try_lock`]). The
//! kernel arbitrates: one open file holds the lock, a second open of
//! the same file conflicts even within one process, and the lock is
//! released the moment its holder's process dies, however it dies. So
//! there is no staleness to judge and nothing to take over. Dropping a
//! lock leaves the file in place, because a later opener would lock a
//! fresh inode next to the holder; only a retired shard's lock files
//! are removed, once no claimer can win them. The pid written into the
//! file is a diagnostic for [`LockError::Held`] only. Dropping a lock unlocks it explicitly: a
//! child spawned meanwhile shares the open file until it execs, and a
//! bare close would leave the lock held through that copy.
//!
//! The supervisor claims a campaign directory with one (`journal.lock`),
//! a campaign journal stops two writers interleaving appends with one,
//! and a worker claims a shard with one (`shards/shard-<s>.lock`).

use std::fmt;
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Why a [`DirLock`] could not be acquired.
#[derive(Debug)]
pub enum LockError {
    /// Another open file holds the lock.
    Held {
        /// The lock file.
        path: PathBuf,
        /// The pid recorded in it; 0 when unreadable.
        owner_pid: u32,
    },
    /// Filesystem trouble unrelated to contention.
    Io(io::Error),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Held { path, owner_pid } => {
                write!(f, "lock {} is held by live pid {owner_pid}", path.display())
            }
            LockError::Io(e) => write!(f, "lock io: {e}"),
        }
    }
}

impl std::error::Error for LockError {}

impl From<io::Error> for LockError {
    fn from(e: io::Error) -> Self {
        LockError::Io(e)
    }
}

/// An exclusively held lock file; released when dropped.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
    file: File,
}

impl DirLock {
    /// Locks `dir/file_name` exclusively, creating `dir` and the file if
    /// needed. Fails at once with [`LockError::Held`] while another open
    /// file holds it.
    pub fn acquire(dir: &Path, file_name: &str) -> Result<Self, LockError> {
        fs::create_dir_all(dir)?;
        let path = dir.join(file_name);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                let owner_pid = fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| text.split_whitespace().next()?.parse().ok())
                    .unwrap_or(0);
                return Err(LockError::Held { path, owner_pid });
            }
            Err(TryLockError::Error(e)) => return Err(LockError::Io(e)),
        }
        let _ = file
            .set_len(0)
            .and_then(|()| writeln!(file, "{}", std::process::id()));
        Ok(DirLock { path, file })
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = self.file.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mocket-lock-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn dead_pid() -> u32 {
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let pid = child.id();
        child.wait().unwrap();
        pid
    }

    #[test]
    fn exclusive_while_held_released_on_drop() {
        let dir = tmp("excl");
        let lock = DirLock::acquire(&dir, "t.lock").unwrap();
        match DirLock::acquire(&dir, "t.lock") {
            Err(LockError::Held { owner_pid, .. }) => {
                assert_eq!(owner_pid, std::process::id());
            }
            other => panic!("expected Held, got {other:?}"),
        }
        drop(lock);
        let again = DirLock::acquire(&dir, "t.lock").expect("released on drop");
        assert!(DirLock::acquire(&dir, "t.lock").is_err(), "re-acquired");
        drop(again);
        DirLock::acquire(&dir, "t.lock").expect("released again");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_dead_pid_lock_is_taken_over() {
        let dir = tmp("stale");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("t.lock"), format!("{}\n", dead_pid())).unwrap();
        let lock = DirLock::acquire(&dir, "t.lock").expect("stale lock must be taken over");
        drop(lock);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lock_content_counts_as_stale() {
        let dir = tmp("torn");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("t.lock"), "").unwrap();
        let lock = DirLock::acquire(&dir, "t.lock").expect("empty lock must be taken over");
        drop(lock);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_locks_different_names_coexist() {
        let dir = tmp("names");
        let a = DirLock::acquire(&dir, "a.lock").unwrap();
        let b = DirLock::acquire(&dir, "b.lock").unwrap();
        drop((a, b));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Four contenders start together from each shape a lock file can
    /// be found in — absent, naming a dead pid, empty — and every one
    /// keeps its result until all have tried: exactly one may hold it.
    #[test]
    fn at_most_one_holder_under_contention() {
        const THREADS: usize = 4;
        let dir = tmp("contend");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lock");
        let dead = format!("{}\n", dead_pid());
        let (start, tried) = (Barrier::new(THREADS), Barrier::new(THREADS));
        for round in 0..3000 {
            match round % 3 {
                0 => {
                    let _ = fs::remove_file(&path);
                }
                1 => fs::write(&path, &dead).unwrap(),
                _ => fs::write(&path, "").unwrap(),
            }
            let holders = std::thread::scope(|scope| {
                let contenders: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            let result = DirLock::acquire(&dir, "t.lock");
                            tried.wait();
                            result.is_ok()
                        })
                    })
                    .collect();
                contenders
                    .into_iter()
                    .map(|c| c.join().unwrap())
                    .filter(|&held| held)
                    .count()
            });
            assert_eq!(holders, 1, "round {round} (start state {})", round % 3);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
