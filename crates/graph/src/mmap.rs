//! Read-only memory-mapped files (Unix), used as zero-copy backing
//! buffers for v3 binary graph images.
//!
//! The workspace vendors no `libc`, so the two syscalls are declared
//! directly; the constants are the Linux/BSD values, which agree for
//! `PROT_READ` and `MAP_PRIVATE` across the Unix platforms the project
//! targets. Non-Unix builds fall back to reading the file into an
//! aligned owned buffer (see [`crate::io::map_graph_file`]) — same
//! semantics, one copy.

#![cfg(unix)]

use crate::storage::ByteStore;
use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};
use std::path::Path;

const PROT_READ: c_int = 1;
const MAP_PRIVATE: c_int = 2;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// A read-only, privately mapped file.
///
/// Page-cache-backed: loading a graph through it touches only the pages
/// the CSR arrays actually read, and the base address is page-aligned,
/// so 8-aligned file offsets stay 8-aligned in memory.
pub struct MappedFile {
    ptr: *mut c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ and never mutated after creation, so
// shared references to its bytes are sound from any thread; the raw
// pointer is owned exclusively by this struct until Drop.
unsafe impl Send for MappedFile {}
// SAFETY: as above — concurrent reads of an immutable mapping are safe.
unsafe impl Sync for MappedFile {}

impl MappedFile {
    /// Maps `path` read-only. Empty files map to an empty buffer without
    /// a syscall (mmap rejects zero-length mappings).
    pub fn open(path: &Path) -> io::Result<MappedFile> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "file exceeds address space")
        })?;
        if len == 0 {
            return Ok(MappedFile { ptr: std::ptr::null_mut(), len: 0 });
        }
        // SAFETY: fd is a valid open file for the duration of the call,
        // the kernel picks the address (addr = null), and the returned
        // mapping (checked against MAP_FAILED) stays valid until the
        // munmap in Drop; PROT_READ|MAP_PRIVATE cannot alias writable
        // Rust memory.
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(MappedFile { ptr, len })
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: ptr/len describe exactly the mapping created in
            // `open`, unmapped exactly once; no slice into it can
            // outlive self (ByteStore borrows are tied to &self).
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

impl ByteStore for MappedFile {
    fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: the mapping is valid for `len` readable bytes for the
        // lifetime of self (unmapped only in Drop), and mapped file
        // pages are initialized memory.
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_file_contents() {
        let path = crate::test_dir("maps_file_contents").join("sample.bin");
        let payload: Vec<u8> = (0..255u8).collect();
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        assert_eq!(map.bytes().as_ptr() as usize % 8, 0, "page-aligned base");
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = crate::test_dir("empty_file_maps_empty").join("empty.bin");
        std::fs::File::create(&path).unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.bytes(), &[] as &[u8]);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(MappedFile::open(Path::new("/nonexistent/spammass.bin")).is_err());
    }
}
