//! Layer kernels: each times one public entry point of one crate on the
//! workload's staged data, outside any job, and checks what it returns.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use scifmt::{SncBuilder, SncFile};

use crate::metrics::{median, Metrics};
use crate::trace::Tracer;
use crate::workloads::{input_uri, Staged, Workload, DIR, SQL_QUERIES};

const MIB: f64 = 1024.0 * 1024.0;
/// Each kernel repeats until it has run this long and at least
/// `MIN_REPS` times; the median repetition is reported.
const MIN_KERNEL_S: f64 = 0.2;
const MIN_REPS: usize = 5;

/// Median seconds of one call of `f`, under a span named `name`.
fn time<R>(tr: &Tracer, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_REPS || start.elapsed().as_secs_f64() < MIN_KERNEL_S {
        let _g = tr.span(name);
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

pub fn run(w: &Workload, staged: &Staged, tr: &Tracer) -> Result<Metrics, String> {
    let (pfs, info) = (&staged.pfs, &staged.info);
    let first = info.files.first().ok_or("no staged files")?;
    let bytes = pfs.file(first).ok_or("staged file missing")?.data.clone();
    let file = SncFile::open(bytes.clone()).map_err(|e| e.to_string())?;
    let vars: Vec<scifmt::VarMeta> = file
        .meta()
        .all_vars()
        .into_iter()
        .map(|(_, v)| v.clone())
        .collect();
    let raw: usize = vars.iter().map(scifmt::VarMeta::raw_size).sum();
    let mut m = Metrics::new();

    // scifmt encode: rebuild the staged file from its decoded variables.
    let mut arrays = Vec::new();
    for v in &vars {
        arrays.push(file.get_var(&v.name).map_err(|e| e.to_string())?);
    }
    let encode = || -> Result<Vec<u8>, String> {
        let mut b = SncBuilder::new();
        for (name, value) in &file.meta().root.attrs {
            b.attr("", name, value.clone());
        }
        for (v, a) in vars.iter().zip(&arrays) {
            let dims: Vec<(&str, usize)> =
                v.dims.iter().map(|d| (d.name.as_str(), d.len)).collect();
            b.add_var("", &v.name, &dims, &v.chunk_shape, v.codec, a.clone())
                .map_err(|e| e.to_string())?;
        }
        Ok(b.finish())
    };
    if encode()? != *bytes {
        return Err("re-encoding a staged file changed its bytes".into());
    }
    let s = time(tr, "kernel.scifmt_encode", &encode);
    m.insert("scifmt.encode_mib_s", raw as f64 / MIB / s);

    // scifmt decode: every chunk of the staged file, bypassing caches.
    let decode = || -> Result<usize, String> {
        let mut n = 0;
        for v in &vars {
            for i in 0..v.chunks.len() {
                n += file.read_chunk_raw(v, i).map_err(|e| e.to_string())?.len();
            }
        }
        Ok(n)
    };
    if decode()? != raw {
        return Err("decoded chunk bytes differ from the variables' raw size".into());
    }
    let s = time(tr, "kernel.scifmt_decode", &decode);
    m.insert("scifmt.decode_mib_s", raw as f64 / MIB / s);

    // scirng CRC32C over every staged byte, against the stamps.
    let files: Vec<&pfs::PfsFile> = info.files.iter().filter_map(|p| pfs.file(p)).collect();
    let total: usize = files.iter().map(|f| f.data.len()).sum();
    for f in &files {
        if scirng::crc32c(&f.data) != f.crc {
            return Err(format!("CRC stamp mismatch on {}", f.path));
        }
    }
    let s = time(tr, "kernel.scirng_crc32c", || {
        files
            .iter()
            .map(|f| scirng::crc32c(&f.data))
            .fold(0u32, |a, c| a ^ c)
    });
    m.insert("scirng.crc32c_mib_s", total as f64 / MIB / s);

    // rframe sqldf: the first workload query over one chunk-sized slab.
    let qr = vars
        .iter()
        .find(|v| v.name == "QR")
        .ok_or("QR not staged")?;
    let count: Vec<usize> = qr
        .chunk_shape
        .iter()
        .zip(qr.shape())
        .map(|(c, s)| (*c).min(s))
        .collect();
    let origin = vec![0; count.len()];
    let slab = file
        .get_vara("QR", &origin, &count)
        .map_err(|e| e.to_string())?;
    let dims: Vec<String> = qr.dims.iter().map(|d| d.name.clone()).collect();
    let frame = scidp::rapi::slab_to_frame(&dims, &origin, &slab).map_err(|e| e.message())?;
    let env = HashMap::from([("df", &frame)]);
    rframe::sqldf(SQL_QUERIES[0], &env).map_err(|e| e.to_string())?;
    let s = time(tr, "kernel.rframe_sqldf", || {
        rframe::sqldf(SQL_QUERIES[0], &env)
    });
    m.insert("rframe.sqldf_mrows_s", frame.n_rows() as f64 / 1e6 / s);

    // rframe image2d + PNG of one level at the workload's raster.
    let (rows, cols) = (w.spec.lat, w.spec.lon);
    let grid: Vec<f64> = (0..rows * cols).map(|i| slab.get_f64(i)).collect();
    let (rw, rh) = scidp::derived_raster((1200, 1200), w.spec.scale_factor());
    let plot = || -> Result<usize, String> {
        let r = rframe::image2d(&grid, rows, cols, rw, rh, rframe::ColorMap::Jet)
            .map_err(|e| e.to_string())?;
        Ok(r.to_png().len())
    };
    plot()?;
    m.insert(
        "rframe.plot_images_s",
        time(tr, "kernel.rframe_plot", &plot),
    );

    // scidp File Explorer scan and Data Mapper split construction.
    let report = scidp::FileExplorer::scan(pfs, DIR).map_err(|e| e.to_string())?;
    if report.sci_files().count() != info.files.len() {
        return Err("explorer missed staged files".into());
    }
    m.insert(
        "scidp.explore_s",
        time(tr, "kernel.scidp_explore", || {
            scidp::FileExplorer::scan(pfs, DIR)
        }),
    );
    let cluster = w.world(staged);
    let env = cluster.env();
    let input = scidp::ScidpInput::path(input_uri()).vars(["QR"]);
    let (splits, _) = scidp::make_splits(&env, &input).map_err(|e| e.to_string())?;
    if splits.len() != qr.chunks.len() * info.files.len() {
        return Err(format!(
            "{} splits for {} QR chunks",
            splits.len(),
            qr.chunks.len() * info.files.len()
        ));
    }
    m.insert(
        "scidp.mapping_s",
        time(tr, "kernel.scidp_make_splits", || {
            scidp::make_splits(&env, &input)
        }),
    );
    Ok(m)
}
