// Chain validation and quarantine: recovery that stays correct when the
// store itself is damaged. The paper's failure model (§5.3) is frequent,
// partial, mid-flight failures — which means the persisted chain can hold
// torn objects, bit-flipped records, or holes left by an interrupted GC.
// LatestValid walks the manifest, CRC-verifies every object it needs
// (decoding re-checks the record CRCs written by the checkpoint package),
// quarantines what fails, and falls back to the newest fully-valid prefix
// instead of erroring out.
package recovery

import (
	"fmt"
	"io"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/obs"
	"lowdiff/internal/storage"
)

// QuarantinePrefix is prepended to the names of quarantined objects.
// Quarantined objects are invisible to manifest scans (which only list
// full-/diff- names) but remain in the store for forensics.
const QuarantinePrefix = "quarantined-"

// ObjectStatus classifies one checkpoint object during validation.
type ObjectStatus int

const (
	// StatusValid: the object decoded and its CRC verified.
	StatusValid ObjectStatus = iota
	// StatusCorrupt: the object exists but fails to decode (torn write,
	// bit flip, truncation).
	StatusCorrupt
	// StatusMissing: the object is named by the manifest but absent
	// (e.g. a GC interrupted mid-delete, or a lost device).
	StatusMissing
)

func (s ObjectStatus) String() string {
	switch s {
	case StatusValid:
		return "valid"
	case StatusCorrupt:
		return "corrupt"
	case StatusMissing:
		return "missing"
	default:
		return fmt.Sprintf("ObjectStatus(%d)", int(s))
	}
}

// ObjectReport records the validation outcome for one checkpoint object.
type ObjectReport struct {
	Name   string
	IsFull bool
	Status ObjectStatus
	Err    error // decode/load error for corrupt or missing objects
}

// Report summarizes a validation or quarantine pass.
type Report struct {
	Objects     []ObjectReport
	Quarantined []string // objects moved under QuarantinePrefix
	// BaseName/BaseIter identify the full checkpoint recovery anchored
	// on (empty/-1 when no valid full exists). RecoverableIter is the
	// newest iteration reachable from that base through valid
	// differentials (-1 when nothing is recoverable).
	BaseName        string
	BaseIter        int64
	RecoverableIter int64
}

// Counts returns how many objects were valid, corrupt, and missing.
func (r *Report) Counts() (valid, corrupt, missing int) {
	for _, o := range r.Objects {
		switch o.Status {
		case StatusValid:
			valid++
		case StatusCorrupt:
			corrupt++
		case StatusMissing:
			missing++
		}
	}
	return
}

// Clean reports whether every object validated.
func (r *Report) Clean() bool {
	_, corrupt, missing := r.Counts()
	return corrupt == 0 && missing == 0
}

// ValidateOptions controls LatestValid and Verify.
type ValidateOptions struct {
	// LoadRetries is the number of attempts per object load (default 3).
	// Retrying distinguishes transient read faults (torn reads, read-side
	// bit flips) from durable corruption: a flaky read heals on retry, a
	// damaged object fails every time.
	LoadRetries int
	// Quarantine moves corrupt objects under QuarantinePrefix so later
	// scans and GC passes never trip over them again. Missing objects
	// have nothing to move and are only reported.
	Quarantine bool
	// Events, when non-nil, receives recover.* events (anchor selection,
	// quarantines, completion) during LatestValid. Nil disables emission.
	Events *obs.EventLog
}

func (o ValidateOptions) withDefaults() ValidateOptions {
	if o.LoadRetries < 1 {
		o.LoadRetries = 3
	}
	return o
}

// loadFull loads and CRC-verifies a full checkpoint with retries through
// load: checkpoint.LoadFull to use the state, checkpoint.LoadFullDiscard
// to only check it.
func loadFull(store storage.Store, name string, attempts int,
	load func(storage.Store, string) (*checkpoint.Full, error)) (*checkpoint.Full, ObjectStatus, error) {
	var err error
	for i := 0; i < attempts; i++ {
		var f *checkpoint.Full
		f, err = load(store, name)
		if err == nil {
			return f, StatusValid, nil
		}
		if storage.IsNotExist(err) {
			return nil, StatusMissing, err
		}
	}
	return nil, StatusCorrupt, err
}

// loadDiff loads and CRC-verifies a differential with retries.
func loadDiff(store storage.Store, name string, attempts int) (*checkpoint.Diff, ObjectStatus, error) {
	var err error
	for i := 0; i < attempts; i++ {
		var d *checkpoint.Diff
		d, err = checkpoint.LoadDiff(store, name)
		if err == nil {
			return d, StatusValid, nil
		}
		if storage.IsNotExist(err) {
			return nil, StatusMissing, err
		}
	}
	return nil, StatusCorrupt, err
}

// quarantine moves an object under QuarantinePrefix, best effort: the
// copy preserves whatever bytes are still readable; the original is
// removed either way so the damaged object leaves the chain's namespace.
func quarantine(store storage.Store, name string) error {
	if r, err := store.Open(name); err == nil {
		data, _ := io.ReadAll(r) // partial reads still preserve a prefix
		_ = r.Close()            // forensic read is best effort anyway
		if err := storage.WriteObject(store, QuarantinePrefix+name, data); err != nil {
			return fmt.Errorf("recovery: quarantine copy %s: %w", name, err)
		}
	}
	if err := store.Delete(name); err != nil && !storage.IsNotExist(err) {
		return fmt.Errorf("recovery: quarantine delete %s: %w", name, err)
	}
	return nil
}

// LatestValid recovers to the newest *fully-valid* state in the store.
// Unlike Latest, it survives damage: corrupt or missing full checkpoints
// are skipped (falling back to the next older full), the differential
// chain is truncated at the first object that fails CRC verification, and
// — with opts.Quarantine — damaged objects are moved aside so subsequent
// scans never consider them. Transient read faults are absorbed by
// per-object load retries. The returned report lists every object
// examined and where recovery anchored.
func LatestValid(store storage.Store, opts ValidateOptions) (*State, *Report, error) {
	opts = opts.withDefaults()
	report := &Report{BaseIter: -1, RecoverableIter: -1}
	m, err := checkpoint.Scan(store)
	if err != nil {
		return nil, report, err
	}
	// Newest decodable full checkpoint, walking backward past damage.
	var full *checkpoint.Full
	var base checkpoint.Entry
	for i := len(m.Fulls) - 1; i >= 0; i-- {
		e := m.Fulls[i]
		f, status, err := loadFull(store, e.Name, opts.LoadRetries, checkpoint.LoadFull)
		if status == StatusValid && f.Iter != e.Iter {
			// A decodable object whose content belongs to a different
			// iteration than its name claims (a misplaced copy, a rename
			// gone wrong) would replay the wrong state — damage, not data.
			status, err, f = StatusCorrupt,
				fmt.Errorf("recovery: %s decodes to iteration %d, name says %d", e.Name, f.Iter, e.Iter), nil
		}
		if status == StatusValid {
			full, base = f, e
			report.Objects = append(report.Objects, ObjectReport{Name: e.Name, IsFull: true, Status: StatusValid})
			break
		}
		report.Objects = append(report.Objects, ObjectReport{Name: e.Name, IsFull: true, Status: status, Err: err})
		if opts.Quarantine && status == StatusCorrupt {
			if qerr := quarantine(store, e.Name); qerr == nil {
				report.Quarantined = append(report.Quarantined, e.Name)
				opts.Events.Emit("recover.quarantine", map[string]any{
					"object": e.Name, "status": status.String(),
				})
			}
		}
	}
	if full == nil {
		return nil, report, fmt.Errorf("recovery: no valid full checkpoint in store")
	}
	report.BaseName, report.BaseIter = base.Name, full.Iter
	opts.Events.Emit("recover.anchor", map[string]any{"object": base.Name, "iter": full.Iter})
	// Validate the differential chain; truncate at the first damage.
	chain := m.DiffsAfter(full.Iter)
	var diffs []*checkpoint.Diff
	for _, e := range chain {
		d, status, err := loadDiff(store, e.Name, opts.LoadRetries)
		if status == StatusValid && (d.FirstIter != e.FirstIter || d.LastIter != e.LastIter) {
			// Name/content mismatch: applying this payload would step the
			// optimizer with another iteration's gradient. Truncate here.
			status, err = StatusCorrupt,
				fmt.Errorf("recovery: %s decodes to range [%d,%d], name says [%d,%d]",
					e.Name, d.FirstIter, d.LastIter, e.FirstIter, e.LastIter)
		}
		report.Objects = append(report.Objects, ObjectReport{Name: e.Name, Status: status, Err: err})
		if status != StatusValid {
			if opts.Quarantine && status == StatusCorrupt {
				if qerr := quarantine(store, e.Name); qerr == nil {
					report.Quarantined = append(report.Quarantined, e.Name)
					opts.Events.Emit("recover.quarantine", map[string]any{
						"object": e.Name, "status": status.String(),
					})
				}
			}
			break
		}
		diffs = append(diffs, d)
	}
	st, err := Replay(full, diffs)
	if err != nil {
		return nil, report, err
	}
	report.RecoverableIter = st.Iter
	opts.Events.Emit("recover.complete", map[string]any{
		"iter": st.Iter, "base_iter": full.Iter, "diffs": len(diffs),
		"quarantined": len(report.Quarantined),
	})
	return st, report, nil
}

// Verify CRC-checks every checkpoint object in the store without mutating
// anything and reports per-object validity plus where recovery would
// anchor. It is the read-only companion of LatestValid, used by the
// lowdiffinspect verify subcommand and the daemon's full-commit
// validation. Fulls are checked in discard mode, without materializing
// their float vectors.
func Verify(store storage.Store, opts ValidateOptions) (*Report, error) {
	opts = opts.withDefaults()
	opts.Quarantine = false
	report := &Report{BaseIter: -1, RecoverableIter: -1}
	m, err := checkpoint.Scan(store)
	if err != nil {
		return nil, err
	}
	fullValid := make(map[string]bool, len(m.Fulls))
	for _, e := range m.Fulls {
		f, status, err := loadFull(store, e.Name, opts.LoadRetries, checkpoint.LoadFullDiscard)
		if status == StatusValid && f.Iter != e.Iter {
			status, err = StatusCorrupt,
				fmt.Errorf("recovery: %s decodes to iteration %d, name says %d", e.Name, f.Iter, e.Iter)
		}
		fullValid[e.Name] = status == StatusValid
		r := ObjectReport{Name: e.Name, IsFull: true, Status: status}
		if status != StatusValid {
			r.Err = err
		}
		report.Objects = append(report.Objects, r)
	}
	diffValid := make(map[string]bool, len(m.Diffs))
	for _, e := range m.Diffs {
		d, status, err := loadDiff(store, e.Name, opts.LoadRetries)
		if status == StatusValid && (d.FirstIter != e.FirstIter || d.LastIter != e.LastIter) {
			status, err = StatusCorrupt,
				fmt.Errorf("recovery: %s decodes to range [%d,%d], name says [%d,%d]",
					e.Name, d.FirstIter, d.LastIter, e.FirstIter, e.LastIter)
		}
		diffValid[e.Name] = status == StatusValid
		r := ObjectReport{Name: e.Name, Status: status}
		if status != StatusValid {
			r.Err = err
		}
		report.Objects = append(report.Objects, r)
	}
	// Where recovery would anchor: newest valid full, then the contiguous
	// chain of valid differentials after it.
	for i := len(m.Fulls) - 1; i >= 0; i-- {
		if !fullValid[m.Fulls[i].Name] {
			continue
		}
		report.BaseName = m.Fulls[i].Name
		report.BaseIter = m.Fulls[i].Iter
		report.RecoverableIter = m.Fulls[i].Iter
		for _, d := range m.DiffsAfter(m.Fulls[i].Iter) {
			if !diffValid[d.Name] {
				break
			}
			report.RecoverableIter = d.LastIter
		}
		break
	}
	return report, nil
}
