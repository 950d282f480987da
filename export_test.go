package must

import "must/internal/faultfs"

// OpenDurableFS is OpenDurable over a fault-injecting filesystem, for
// the external tests that drive a DurableService through internal/server.
func OpenDurableFS(svc Service, dir string, fs faultfs.FS) (*DurableService, error) {
	ds, _, err := OpenDurable(svc, dir, DurableOptions{fs: fs})
	return ds, err
}
