package shard

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// FS abstracts every filesystem operation the durable-file primitives
// (WriteFileAtomic, Quarantine, QuarantineBytes, SweepTemps) and the
// checkpoint path perform, so the robustness suites can inject write,
// sync, rename and read failures (see FaultFS) without touching the real
// disk contract. The zero value of RunOptions uses the real OS
// filesystem; production code never needs to implement this.
type FS interface {
	// ReadFile reads the whole named file (os.ReadFile).
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new temporary file in dir (os.CreateTemp,
	// with os.WriteFile's 0o644 mode instead of the private 0o600, since
	// WriteFileAtomic renames it into place as a regular output file).
	CreateTemp(dir, pattern string) (File, error)
	// CreateExcl creates the named file, failing with fs.ErrExist if it
	// already exists (os.OpenFile with O_WRONLY|O_CREATE|O_EXCL, mode
	// 0o644) — the name reservation of Quarantine.
	CreateExcl(name string) (File, error)
	// Rename atomically replaces newpath with oldpath (os.Rename).
	Rename(oldpath, newpath string) error
	// Remove deletes the named file (os.Remove).
	Remove(name string) error
	// SyncDir durably commits a directory's entries — the fsync that
	// makes a rename survive a host crash, not just a process kill.
	SyncDir(dir string) error
	// Glob lists the names matching pattern (filepath.Glob), used by
	// SweepTemps and the curve store's directory scan.
	Glob(pattern string) ([]string, error)
	// Stat describes the named file (os.Stat), used by the age check of
	// SweepTemps and the curve store's directory scan.
	Stat(name string) (fs.FileInfo, error)
	// MkdirAll creates a directory and any missing parents, mode 0o755
	// (os.MkdirAll), used for the fleet coordinator's spool.
	MkdirAll(dir string) error
}

// File is the writable handle CreateTemp and CreateExcl return: enough
// surface for the write → sync → close → rename sequence.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage (os.File.Sync).
	Sync() error
	// Close closes the handle.
	Close() error
	// Name reports the file's path.
	Name() string
}

// osFS is the real filesystem; the default when RunOptions.FS is nil.
type osFS struct{}

// OS returns the real-filesystem implementation of FS.
func OS() FS { return osFS{} }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	if err := f.Chmod(0o644); err != nil {
		_ = f.Close()
		_ = os.Remove(f.Name())
		return nil, err
	}
	return f, nil
}

func (osFS) CreateExcl(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// orOS resolves a possibly-nil FS option to the real filesystem.
func orOS(fsys FS) FS {
	if fsys == nil {
		return osFS{}
	}
	return fsys
}

// WriteFileAtomic atomically and durably replaces path with data — the
// one write path of every durable file in the repository (checkpoints,
// curve-store entries, spool specs, CLI outputs). The bytes go to a temp
// file "<base>.tmp*" in path's directory, which is written, fsynced,
// closed and renamed over path; then the directory is fsynced. The
// rename makes a kill mid-write leave the previous file intact rather
// than a torn one; the two syncs make a committed file survive a host
// crash — without the file sync the rename can land before the data (a
// zero-length or torn "committed" file), and without the directory sync
// the rename itself can be lost. The temp file is removed on every
// failure before the rename commits. Errors name the path and wrap the
// cause. A nil fsys means the real filesystem, as for every primitive
// here.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	fsys = orOS(fsys)
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		// Data must be durable before the rename commits it: sync the
		// file first, then close.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = fsys.Remove(tmp.Name()) // best effort; SweepTemps catches leftovers
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("syncing directory of %s: %w", path, err)
	}
	return nil
}

// quarantineNames caps the generations base, base.1, … a quarantine
// tries before giving up.
const quarantineNames = 1000

// Quarantine moves path aside to the first free name among base,
// base.1, base.2, … (at most 1000 names) and returns that name, so the
// evidence of a bad file survives while its slot frees for a
// replacement. The name is reserved with an exclusive create and the
// rename then replaces the reservation: two concurrent quarantines can
// never pick the same generation, and earlier evidence is never
// overwritten. A failed rename removes the reservation; a path that
// vanished (a concurrent quarantine moved it) yields an error wrapping
// fs.ErrNotExist.
func Quarantine(fsys FS, path, base string) (string, error) {
	fsys = orOS(fsys)
	return reserve(fsys, base, func(f File) error {
		if err := f.Close(); err != nil {
			return err
		}
		return fsys.Rename(path, f.Name())
	})
}

// QuarantineBytes writes data — evidence that never had a file of its
// own, such as an invalid network response — to the first free name
// among base, base.1, base.2, … with the same reservation discipline
// as Quarantine, and returns that name.
func QuarantineBytes(fsys FS, data []byte, base string) (string, error) {
	fsys = orOS(fsys)
	return reserve(fsys, base, func(f File) error {
		_, err := f.Write(data)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

// reserve is the quarantine-name loop: it exclusively creates the first
// free generation of base and hands the open reservation to fill, which
// must close it. A fill error removes the reservation.
func reserve(fsys FS, base string, fill func(File) error) (string, error) {
	for i := 0; i < quarantineNames; i++ {
		name := base
		if i > 0 {
			name = fmt.Sprintf("%s.%d", base, i)
		}
		f, err := fsys.CreateExcl(name)
		if errors.Is(err, fs.ErrExist) {
			continue // an earlier quarantine holds this generation
		}
		if err == nil {
			if err = fill(f); err == nil {
				return name, nil
			}
			_ = fsys.Remove(name) // best effort: an empty reservation is harmless
		}
		return "", fmt.Errorf("quarantining to %s: %w", name, err)
	}
	return "", fmt.Errorf("quarantining to %s: all %d names taken", base, quarantineNames)
}

// SweepTemps removes the files matching pattern — the temp files a
// process killed between CreateTemp and Rename leaves behind — and
// returns the names it removed. When minAge is positive, files modified
// more recently are spared: they may belong to a live writer in another
// process, whose rename the sweep would otherwise fail. Files that vanish
// mid-sweep are skipped silently; other failures are joined into the
// returned error, and are harmless — leftover temps cost disk, never
// correctness.
func SweepTemps(fsys FS, pattern string, minAge time.Duration) ([]string, error) {
	fsys = orOS(fsys)
	matches, err := fsys.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("sweeping %s: %w", pattern, err)
	}
	cutoff := time.Now().Add(-minAge)
	var removed []string
	var errs []error
	for _, m := range matches {
		if minAge > 0 {
			fi, err := fsys.Stat(m)
			if err != nil || fi.ModTime().After(cutoff) {
				continue
			}
		}
		if err := fsys.Remove(m); err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				errs = append(errs, fmt.Errorf("sweeping stale temp %s: %w", m, err))
			}
			continue
		}
		removed = append(removed, m)
	}
	return removed, errors.Join(errs...)
}
